"""System config loading: the bundled files, unknown fields, app settings."""

from __future__ import annotations

import pytest

from conftest import CONFIG_DIR
from echoguide.app import Language
from echoguide.config import SystemConfig, config_from_dict, load_config
from echoguide.errors import ConfigError


def test_default_config_file_spells_out_the_defaults():
    assert load_config(str(CONFIG_DIR / "default.json")) == SystemConfig.default()


@pytest.mark.parametrize("section, field", [
    ("firmware", "pulses_per_inch"),  # dropped: nothing converted with it
    ("firmware", "colour"),
    ("app", "colour"),
])
def test_unknown_fields_are_named(section, field):
    with pytest.raises(ConfigError, match=f"^{section}.{field}: unknown field$"):
        config_from_dict({"schema_version": 1, section: {field: 1}})


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
