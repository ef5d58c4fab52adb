"""System config loading: the bundled files, unknown fields, app settings."""

from __future__ import annotations

import math
import re

import pytest

from conftest import CONFIG_DIR
from echoguide.app import Language
from echoguide.config import SystemConfig, config_from_dict, load_config
from echoguide.errors import ConfigError, ScenarioError
from echoguide.world import load_scenario


def test_default_config_file_spells_out_the_defaults():
    assert load_config(str(CONFIG_DIR / "default.json")) == SystemConfig.default()


@pytest.mark.parametrize("section, field", [
    ("firmware", "pulses_per_inch"),  # dropped: nothing converted with it
    # the rangefinder is the world's, not the config's (world.PULSES_PER_CM, GATE_*_CM)
    ("firmware", "pulses_per_cm"),
    ("firmware", "gate_low_cm"),
    ("firmware", "gate_high_cm"),
    ("firmware", "colour"),
    ("app", "colour"),
])
def test_unknown_fields_are_named(section, field):
    with pytest.raises(ConfigError, match=f"^{section}.{field}: unknown field$"):
        config_from_dict({"schema_version": 1, section: {field: 1}})


@pytest.mark.parametrize("doc, field", [
    ({"firmware": {"samples_per_measurement": 9.0}}, "firmware.samples_per_measurement"),
    ({"firmware": {"sample_period_ms": 10.5}}, "firmware.sample_period_ms"),
    ({"firmware": {"ground_alert_cm": True}}, "firmware.ground_alert_cm"),
    ({"app": {"upload_interval_ms": 1500.5}}, "app.upload_interval_ms"),
    ({"app": {"device_id": 5}}, "app.device_id"),
    ({"app": {"gps_sigma_m": math.nan}}, "app.gps_sigma_m"),
    ({"calibration": {"tiles": {"dry": {"rel_sigma": math.inf}}}},
     "calibration.tiles.dry.rel_sigma"),
    ({"calibration": {"tiles": {"dry": {"rel_sigma": math.nan}}}},
     "calibration.tiles.dry.rel_sigma"),
    ({"calibration": {"tiles": {"dry": {"rel_sigma": "0.1"}}}},
     "calibration.tiles.dry.rel_sigma"),
    ({"calibration": {"tiles": {"dry": {"rel_sigma": True}}}},
     "calibration.tiles.dry.rel_sigma"),
    ({"schema_version": True}, "schema_version"),
])
def test_mistyped_fields_are_named_at_load_time(doc, field):
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        config_from_dict({"schema_version": 1, **doc})


def test_app_settings_pass_through():
    app = config_from_dict({"schema_version": 1, "app": {
        "language": "bengali", "emergency_number": "+15550000", "upload_interval_ms": 1000,
        "announce_repeat_ms": 500, "device_id": "walker-9", "listen_window_ms": 3000,
        "gps_sigma_m": 1.5, "network_sigma_m": 20.0,
        "commands": {"help me": "call_emergency"},
    }}).app
    assert (app.language, app.emergency_number, app.upload_interval_ms) == \
        (Language.BENGALI, "+15550000", 1000)
    assert (app.announce_repeat_ms, app.device_id, app.listen_window_ms) == (500, "walker-9", 3000)
    assert (app.gps_sigma_m, app.network_sigma_m) == (1.5, 20.0)
    assert app.commands == {"help me": "call_emergency"}


@pytest.mark.parametrize("load, error", [(load_config, ConfigError),
                                         (load_scenario, ScenarioError)])
def test_a_file_that_is_not_utf8_is_named(tmp_path, load, error):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"schema_version": 1, "app": {"device_id": "José"}}'.encode("latin-1"))
    with pytest.raises(error, match="latin1.json: not valid JSON"):
        load(str(path))
