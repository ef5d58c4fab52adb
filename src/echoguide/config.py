"""System configuration: firmware constants, app settings, and the echo
noise calibration table, loadable together from one JSON file.

Every section is optional and falls back to the built-in defaults; see
README for the schema.  Each field is read by the type its dataclass
declares, and the dataclasses check the ranges.  Validation failures raise
ConfigError naming the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .app import AppConfig, DEFAULT_PHRASES, Language
from .errors import ConfigError
from .firmware import FirmwareConfig
from .jsonread import (
    bounded_rule, built_rule, dataclass_rule, load_json, object_rule, read_json,
)
from .link import ObstacleMessage
from .world import Calibration, DEFAULT_CALIBRATION, NoiseParams, SurfaceKind, Weather


@dataclass(frozen=True)
class SystemConfig:
    firmware: FirmwareConfig
    app: AppConfig
    calibration: Calibration

    @classmethod
    def default(cls) -> "SystemConfig":
        return cls(FirmwareConfig(), AppConfig(), dict(DEFAULT_CALIBRATION))


def _merged(default: dict, outer: type[Enum], inner: type[Enum], kind):
    """Rule for a JSON object {outer value: {inner value: kind}}: a copy of
    `default` with those entries put in, keyed by (outer, inner) member."""
    def build(table: dict) -> dict:
        merged = dict(default)
        for outer_value, per_inner in table.items():
            for inner_value, value in per_inner.items():
                merged[(outer(outer_value), inner(inner_value))] = value
        return merged
    return built_rule(object_rule({a.value: object_rule({b.value: kind for b in inner})
                                   for a in outer}), build)


_CONFIG = object_rule({
    "schema_version": bounded_rule(int, 1, 1, "must be 1"),
    "firmware": dataclass_rule(FirmwareConfig),
    "app": dataclass_rule(AppConfig,
                          phrases=_merged(DEFAULT_PHRASES, ObstacleMessage, Language, str),
                          # utterance text -> action name; AppConfig checks both
                          commands=object_rule({}, other=str)),
    "calibration": _merged(DEFAULT_CALIBRATION, SurfaceKind, Weather,
                           dataclass_rule(NoiseParams)),
}, required=("schema_version",))


def config_from_dict(doc: dict) -> SystemConfig:
    sections = read_json(doc, _CONFIG, ConfigError, "config")
    return SystemConfig(
        firmware=sections.get("firmware") or FirmwareConfig(),
        app=sections.get("app") or AppConfig(),
        calibration=sections.get("calibration") or dict(DEFAULT_CALIBRATION),
    )


def load_config(path: str) -> SystemConfig:
    return load_json(path, ConfigError, config_from_dict)


__all__ = ["SystemConfig", "config_from_dict", "load_config"]
