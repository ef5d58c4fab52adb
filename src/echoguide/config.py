"""System configuration: firmware constants, app settings, and the echo
noise calibration table, loadable together from one JSON file.

Every section is optional and falls back to the built-in defaults; see
README for the schema.  Validation failures raise ConfigError naming the
offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields

from .app import AppConfig, DEFAULT_COMMANDS, DEFAULT_PHRASES, Language, ObstacleMessage
from .errors import ConfigError
from .firmware import FirmwareConfig
from .world import Calibration, DEFAULT_CALIBRATION, NoiseParams, SurfaceKind, Weather

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SystemConfig:
    firmware: FirmwareConfig
    app: AppConfig
    calibration: Calibration

    @classmethod
    def default(cls) -> "SystemConfig":
        return cls(FirmwareConfig(), AppConfig(), dict(DEFAULT_CALIBRATION))


def _require_section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: must be an object")
    return section


def _parse_firmware(section: dict) -> FirmwareConfig:
    allowed = {f.name for f in dataclass_fields(FirmwareConfig)}
    for key in section:
        if key not in allowed:
            raise ConfigError(f"firmware.{key}: unknown field")
    try:
        return FirmwareConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"firmware: {exc}") from None


def _parse_app(section: dict) -> AppConfig:
    allowed = {f.name for f in dataclass_fields(AppConfig)}
    for key in section:
        if key not in allowed:
            raise ConfigError(f"app.{key}: unknown field")
    # phrases and commands are merged and checked below; the rest pass as given.
    kwargs = {key: value for key, value in section.items()
              if key not in ("phrases", "commands")}
    if "language" in kwargs:
        try:
            kwargs["language"] = Language(kwargs["language"])
        except ValueError:
            allowed = ", ".join(l.value for l in Language)
            raise ConfigError(f"app.language: must be one of: {allowed}") from None

    if "phrases" in section:
        if not isinstance(section["phrases"], dict):
            raise ConfigError("app.phrases: must be an object")
        phrases = dict(DEFAULT_PHRASES)
        for msg_key, per_language in section["phrases"].items():
            try:
                message = ObstacleMessage(msg_key)
            except ValueError:
                raise ConfigError(f"app.phrases.{msg_key}: unknown message") from None
            if not isinstance(per_language, dict):
                raise ConfigError(f"app.phrases.{msg_key}: must map language to text")
            for lang_key, text in per_language.items():
                try:
                    language = Language(lang_key)
                except ValueError:
                    raise ConfigError(
                        f"app.phrases.{msg_key}.{lang_key}: unknown language"
                    ) from None
                if not isinstance(text, str) or not text:
                    raise ConfigError(
                        f"app.phrases.{msg_key}.{lang_key}: must be a non-empty string"
                    )
                phrases[(message, language)] = text
        kwargs["phrases"] = phrases

    if "commands" in section:
        if not isinstance(section["commands"], dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in section["commands"].items()
        ):
            raise ConfigError("app.commands: must map utterance text to action names")
        kwargs["commands"] = dict(section["commands"])

    try:
        return AppConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"app: {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"app: {exc}") from None


def _parse_calibration(section: dict) -> Calibration:
    calibration = dict(DEFAULT_CALIBRATION)
    for surface_key, per_weather in section.items():
        try:
            surface = SurfaceKind(surface_key)
        except ValueError:
            raise ConfigError(f"calibration.{surface_key}: unknown surface") from None
        if not isinstance(per_weather, dict):
            raise ConfigError(f"calibration.{surface_key}: must map weather to parameters")
        for weather_key, params in per_weather.items():
            try:
                weather = Weather(weather_key)
            except ValueError:
                raise ConfigError(
                    f"calibration.{surface_key}.{weather_key}: unknown weather"
                ) from None
            path = f"calibration.{surface_key}.{weather_key}"
            if not isinstance(params, dict):
                raise ConfigError(f"{path}: must be an object")
            unknown = set(params) - {"rel_sigma", "rel_bias", "outlier_prob"}
            if unknown:
                raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
            try:
                calibration[(surface, weather)] = NoiseParams(
                    rel_sigma=float(params.get("rel_sigma", 0.0)),
                    rel_bias=float(params.get("rel_bias", 0.0)),
                    outlier_prob=float(params.get("outlier_prob", 0.0)),
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: {exc}") from None
    return calibration


def config_from_dict(doc: dict) -> SystemConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: must be {CONFIG_SCHEMA_VERSION}")
    for key in doc:
        if key not in {"schema_version", "firmware", "app", "calibration"}:
            raise ConfigError(f"{key}: unknown section")
    return SystemConfig(
        firmware=_parse_firmware(_require_section(doc, "firmware")),
        app=_parse_app(_require_section(doc, "app")),
        calibration=_parse_calibration(_require_section(doc, "calibration")),
    )


def load_config(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(doc)


__all__ = ["SystemConfig", "config_from_dict", "load_config"]
