"""Handset app logic: token decoding, announcements, push-to-talk voice
commands, provider selection, fixes, and the upload scheduler."""

from __future__ import annotations

import random
import statistics

import pytest

from echoguide.app import (
    AppConfig,
    AssistiveApp,
    CallEmergency,
    DEFAULT_PHRASES,
    Language,
    ObstacleMessage,
    Provider,
    SetMuted,
    UnknownTokenError,
    Uploader,
    decode_message,
    make_fix,
    normalize_utterance,
    select_provider,
)
from echoguide.errors import ConfigError


# -- decoding -----------------------------------------------------------------


@pytest.mark.parametrize("token,message", [
    ("Ground", ObstacleMessage.GROUND),
    ("Left", ObstacleMessage.LEFT),
    ("Right", ObstacleMessage.RIGHT),
])
def test_decode_exact_tokens(token, message):
    assert decode_message(token) is message


@pytest.mark.parametrize("token", ["ground", "LEFT", "Right ", " Ground", "Rights", "", "Gr"])
def test_decode_rejects_near_misses(token):
    with pytest.raises(UnknownTokenError) as excinfo:
        decode_message(token)
    assert excinfo.value.token == token


# -- announcements ---------------------------------------------------------------


def test_announce_repeat_suppression_per_message():
    app = AssistiveApp(AppConfig())
    assert app.announce(ObstacleMessage.GROUND, 1000) == \
        DEFAULT_PHRASES[(ObstacleMessage.GROUND, Language.ENGLISH)]
    assert app.announce(ObstacleMessage.GROUND, 1500) is None  # too soon
    assert app.announce(ObstacleMessage.LEFT, 1500) is not None  # other message free
    assert app.announce(ObstacleMessage.GROUND, 3000) is not None  # 2000 ms elapsed


def test_announce_boundary_is_at_exactly_repeat_interval():
    app = AssistiveApp(AppConfig())
    assert app.announce(ObstacleMessage.RIGHT, 0) is not None
    assert app.announce(ObstacleMessage.RIGHT, 1999) is None
    assert app.announce(ObstacleMessage.RIGHT, 2000) is not None


def test_announce_respects_mute_and_unmute():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    assert app.handle_utterance("stop speaking", 100) == SetMuted(True)
    assert app.announce(ObstacleMessage.GROUND, 200) is None
    app.handle_button(300)
    assert app.handle_utterance("start speaking", 400) == SetMuted(False)
    assert app.announce(ObstacleMessage.GROUND, 500) is not None


def test_announce_uses_configured_language():
    app = AssistiveApp(AppConfig(language=Language.BENGALI))
    assert app.announce(ObstacleMessage.LEFT, 0) == \
        DEFAULT_PHRASES[(ObstacleMessage.LEFT, Language.BENGALI)]


def test_phrase_table_must_be_total():
    partial = dict(DEFAULT_PHRASES)
    del partial[(ObstacleMessage.RIGHT, Language.BENGALI)]
    with pytest.raises(ConfigError):
        AppConfig(phrases=partial)


def test_handle_token_decodes_and_announces():
    app = AssistiveApp(AppConfig())
    assert app.handle_token("Ground", 50) == \
        (ObstacleMessage.GROUND, DEFAULT_PHRASES[(ObstacleMessage.GROUND, Language.ENGLISH)])
    assert app.handle_token("Ground", 60) == (ObstacleMessage.GROUND, None)  # dedup
    with pytest.raises(UnknownTokenError):
        app.handle_token("Gr0und", 60)


# -- voice commands -----------------------------------------------------------------


def test_normalize_utterance_rules():
    assert normalize_utterance("  I  NEED   Help ") == "i need help"
    assert normalize_utterance("Stop\tSpeaking") == "stop speaking"
    assert normalize_utterance("") == ""


def test_fsm_idle_ignores_speech():
    app = AssistiveApp(AppConfig())
    assert app.handle_utterance("I need help", 100) is None
    assert app.listening_until_ms is None and not app.muted


def test_fsm_button_opens_window_then_command_fires_once():
    app = AssistiveApp(AppConfig())
    assert app.handle_button(1000) is None
    assert app.listening_until_ms == 11_000
    assert app.handle_utterance("I need help", 2000) == CallEmergency(app.cfg.emergency_number)
    assert app.listening_until_ms is None
    # Window is closed: a second utterance does nothing.
    assert app.handle_utterance("I need help", 2500) is None


def test_fsm_unrecognized_speech_closes_window_silently():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    assert app.handle_utterance("what time is it", 100) is None
    assert app.listening_until_ms is None
    assert app.handle_utterance("i need help", 200) is None


def test_fsm_window_expires_after_ten_seconds():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    assert app.handle_utterance("I need help", 10_001) is None
    assert app.listening_until_ms is None


def test_fsm_utterance_at_exact_deadline_is_accepted():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    assert app.handle_utterance("i need help", 10_000) == CallEmergency(app.cfg.emergency_number)


def test_fsm_late_utterance_without_tick_is_ignored():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    assert app.handle_utterance("i need help", 10_500) is None
    assert app.listening_until_ms is None


def test_fsm_button_refreshes_open_window():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    app.handle_button(5000)
    assert app.listening_until_ms == 15_000
    assert app.handle_utterance("i need help", 12_000) == CallEmergency(app.cfg.emergency_number)


def test_fsm_mute_commands_toggle_state():
    app = AssistiveApp(AppConfig())
    app.handle_button(0)
    assert app.handle_utterance("Stop  Speaking", 10) == SetMuted(True)
    assert app.muted
    app.handle_button(20)
    assert app.handle_utterance("start speaking", 30) == SetMuted(False)
    assert not app.muted


def test_command_table_is_configurable_and_normalized():
    app = AssistiveApp(AppConfig(commands={"help me now": "call_emergency"}))
    app.handle_button(0)
    assert app.handle_utterance("  HELP me   NOW ", 10) == CallEmergency(app.cfg.emergency_number)
    with pytest.raises(ConfigError):
        AppConfig(commands={"Not Normalized": "mute"})
    with pytest.raises(ConfigError):
        AppConfig(commands={"fine": "explode"})


# -- provider selection and fixes ------------------------------------------------------


@pytest.mark.parametrize("gps,network,expected", [
    (True, True, Provider.GPS),
    (True, False, Provider.GPS),
    (False, True, Provider.NETWORK),
    (False, False, None),
])
def test_select_provider_prefers_gps(gps, network, expected):
    assert select_provider(gps, network) is expected


def test_make_fix_zero_sigma_is_exact():
    cfg = AppConfig(gps_sigma_m=0.0, network_sigma_m=0.0)
    fix = make_fix(22.9006, 89.5024, Provider.GPS, "2015-06-01T00:05:00Z",
                   cfg, random.Random(1))
    assert fix == {"device_id": "walker-1", "latitude": 22.9006, "longitude": 89.5024,
                   "timestamp": "2015-06-01T00:05:00Z", "provider": "gps"}


def test_make_fix_rounds_to_six_decimals():
    cfg = AppConfig()
    fix = make_fix(22.9006, 89.5024, Provider.NETWORK, "2015-06-01T00:05:00Z",
                   cfg, random.Random(5))
    assert fix["latitude"] == round(fix["latitude"], 6)
    assert fix["longitude"] == round(fix["longitude"], 6)
    assert fix["provider"] == "network"


def test_make_fix_noise_scales_with_provider_sigma():
    # Sample-sigma ratio between network (50 m) and gps (5 m) errors over
    # 1000 draws each should be close to 10.
    cfg = AppConfig()
    rng = random.Random(42)
    gps_err, net_err = [], []
    for _ in range(1000):
        g = make_fix(10.0, 10.0, Provider.GPS, "2015-01-01T00:00:00Z", cfg, rng)
        n = make_fix(10.0, 10.0, Provider.NETWORK, "2015-01-01T00:00:00Z", cfg, rng)
        gps_err.append(g["latitude"] - 10.0)
        net_err.append(n["latitude"] - 10.0)
    ratio = statistics.stdev(net_err) / statistics.stdev(gps_err)
    assert 8.0 <= ratio <= 12.0


def test_make_fix_clamps_latitude_at_pole():
    cfg = AppConfig(network_sigma_m=200_000.0)
    rng = random.Random(0)
    for _ in range(200):
        fix = make_fix(89.9999, 0.0, Provider.NETWORK, "2015-01-01T00:00:00Z", cfg, rng)
        assert -90.0 <= fix["latitude"] <= 90.0
        assert -180.0 <= fix["longitude"] <= 180.0


def test_make_fix_deterministic_per_seed():
    cfg = AppConfig()
    a = make_fix(1.0, 2.0, Provider.GPS, "2015-01-01T00:00:00Z", cfg, random.Random(3))
    b = make_fix(1.0, 2.0, Provider.GPS, "2015-01-01T00:00:00Z", cfg, random.Random(3))
    assert a == b


# -- uploader ---------------------------------------------------------------------


def fix_numbered(n: int) -> dict:
    return {"device_id": "walker-1", "latitude": 10.0 + n, "longitude": 20.0,
            "timestamp": f"2015-06-01T00:{n:02d}:00Z", "provider": "gps"}


def test_uploader_first_due_is_one_interval_in():
    uploader = Uploader(300_000)
    delivered = []
    fixes = {300_000: fix_numbered(5)}

    def fix_at(due):
        return fixes.get(due)

    def deliver(fix, due):
        delivered.append(fix)
        return len(delivered)

    assert uploader.tick(0, 1_200_000, fix_at, deliver) == []
    assert uploader.tick(299_999, 1_200_000, fix_at, deliver) == []
    attempts = uploader.tick(300_000, 1_200_000, fix_at, deliver)
    assert len(attempts) == 1 and attempts[0].delivered
    assert delivered == [fix_numbered(5)]


def test_uploader_cadence_over_twenty_minutes():
    uploader = Uploader(300_000)
    acked = []

    def fix_at(due):
        return fix_numbered(due // 60_000)

    def deliver(fix, due):
        acked.append(fix)
        return len(acked)

    # The run loop polls at irregular instants; dues still fire once each.
    for now in (100, 400_000, 400_001, 900_000, 1_205_000):
        uploader.tick(now, 1_200_000, fix_at, deliver)
    assert [f["timestamp"] for f in acked] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:10:00Z",
        "2015-06-01T00:15:00Z", "2015-06-01T00:20:00Z",
    ]


def test_uploader_queues_on_failure_and_flushes_in_order():
    uploader = Uploader(300_000)
    server_up = False
    delivered = []

    def fix_at(due):
        return fix_numbered(due // 60_000)

    def deliver(fix, due):
        if not server_up:
            return None
        delivered.append(fix)
        return len(delivered)

    first = uploader.tick(300_000, 1_200_000, fix_at, deliver)
    second = uploader.tick(600_000, 1_200_000, fix_at, deliver)
    assert [a.delivered for a in first + second] == [False, False]
    assert [a.fix["timestamp"] for a in first + second] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:10:00Z",
    ]
    server_up = True
    third = uploader.tick(900_000, 1_200_000, fix_at, deliver)
    assert [a.delivered for a in third] == [True, True, True]
    assert [f["timestamp"] for f in delivered] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:10:00Z", "2015-06-01T00:15:00Z",
    ]
    assert uploader.pending == []


def test_uploader_skips_due_with_no_provider():
    uploader = Uploader(300_000)
    delivered = []

    def fix_at(due):
        if due == 600_000:
            return None  # no provider at the 10-minute mark
        return fix_numbered(due // 60_000)

    def deliver(fix, due):
        delivered.append(fix)
        return len(delivered)

    uploader.tick(950_000, 1_200_000, fix_at, deliver)
    assert [f["timestamp"] for f in delivered] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:15:00Z",
    ]


def test_uploader_honours_horizon_cap():
    uploader = Uploader(300_000)
    seen = []

    def fix_at(due):
        seen.append(due)
        return None

    uploader.tick(2_000_000, 1_200_000, fix_at, lambda fix, due: 1)
    assert seen == [300_000, 600_000, 900_000, 1_200_000]
