"""Invariants of run_scenario on generated scenarios and configs.

The scenarios and configs come from the generators of test_differential.py.
Each run gets up to five user events, each a button or an utterance, with
"start speaking" and speech that is no command among the texts, so a run
can mute and unmute, and a window can be closed by speech, refreshed by a
button, or expire.  The listening window, the repeat intervals of the
firmware and of the announcements are drawn too, and the upload interval
is short, so server outages queue fixes.
The checks follow the loop's order: firmware tick, frames, link, app,
uploader.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from echoguide.config import config_from_dict
from echoguide.harness import run_scenario
from echoguide.world import scenario_from_dict
from test_differential import config_docs, scenario_docs, step_times

TEXTS = ("i need help", "stop speaking", "start speaking", "what time is it")
FRAME_CHANNELS = {"Ground\n": "ground", "Left\n": "left", "Right\n": "right"}


@st.composite
def run_docs(draw) -> tuple[dict, dict]:
    doc = draw(scenario_docs())
    doc["user_events"] = [
        {"t": t, "kind": "button"} if draw(st.booleans())
        else {"t": t, "kind": "utterance", "text": draw(st.sampled_from(TEXTS))}
        for t in draw(step_times(doc["duration_ms"]))
    ]
    config = draw(config_docs())
    config["firmware"]["repeat_interval_ms"] = draw(st.sampled_from([100, 700, 2000]))
    config["app"]["announce_repeat_ms"] = draw(st.sampled_from([1, 700, 2000, 5000]))
    config["app"]["upload_interval_ms"] = draw(st.sampled_from([250, 777, 1000]))
    config["app"]["listen_window_ms"] = draw(st.sampled_from([1, 150, 10_000]))
    return doc, config


def of_kind(events: list[dict], kind: str) -> list[dict]:
    return [e for e in events if e["kind"] == kind]


def fix_of(upload: dict) -> tuple:
    return upload["timestamp"], upload["latitude"], upload["longitude"]


def check_uploads(events: list[dict]) -> None:
    uploads = of_kind(events, "upload")
    delivered = [e for e in uploads if e["outcome"] == "delivered"]
    acks = of_kind(events, "server_ack")
    assert [(a["t"], a["device_id"], a["timestamp"]) for a in acks] == \
        [(u["t"], u["device_id"], u["timestamp"]) for u in delivered]
    ids = [a["id"] for a in acks]
    assert all(a < b for a, b in zip(ids, ids[1:]))
    # A queued fix goes out once, with the first delivery after it.
    assert len({fix_of(u) for u in delivered}) == len(delivered)
    sent = {fix_of(u): u["t"] for u in delivered}
    for queued in (u for u in uploads if u["outcome"] == "queued"):
        later = [u["t"] for u in delivered if u["t"] > queued["t"]]
        if later:
            assert sent.get(fix_of(queued)) == later[0]


def check_alerts_and_frames(events: list[dict], firmware: dict) -> None:
    thresholds = {"ground": firmware.get("ground_alert_cm", 60),
                  "left": firmware.get("left_alert_cm", 100),
                  "right": firmware.get("right_alert_cm", 100)}
    repeat_ms = firmware["repeat_interval_ms"]
    alerts = {(e["t"], e["channel"]): e["distance_cm"] for e in of_kind(events, "alert")}
    below = {(e["t"], e["channel"]): e["measured_cm"] for e in of_kind(events, "measurement")
             if e["measured_cm"] < thresholds[e["channel"]]}
    assert len(alerts) == len(of_kind(events, "alert"))
    assert alerts == below

    frames = {(e["t"], FRAME_CHANNELS[e["data"]]) for e in of_kind(events, "frame")}
    assert frames <= set(alerts)
    last_frame: dict[str, int] = {}  # channels whose alert persists, and its last frame
    for e in events:
        if e["kind"] == "no_echo" or (e["kind"] == "measurement"
                                      and (e["t"], e["channel"]) not in alerts):
            last_frame.pop(e["channel"], None)
        elif e["kind"] == "alert":
            last = last_frame.get(e["channel"])
            if (e["t"], e["channel"]) in frames:  # a new alert, or a repeat that is due
                assert last is None or e["t"] - last >= repeat_ms
                last_frame[e["channel"]] = e["t"]
            else:  # the alert persists and no repeat is due yet
                assert last is not None and e["t"] - last < repeat_ms


def check_motor(events: list[dict]) -> None:
    # After each round a channel's motor runs iff the round alerted; a motor
    # event marks exactly each change, at the round's time, with the new state.
    alerts = {(e["t"], e["channel"]) for e in of_kind(events, "alert")}
    motors = [(e["t"], e["channel"], e["vibrating"]) for e in of_kind(events, "motor")]
    expected = []
    on = {channel: False for channel in FRAME_CHANNELS.values()}
    for e in events:
        if e["kind"] in ("measurement", "no_echo"):
            now_on = (e["t"], e["channel"]) in alerts
            if now_on != on[e["channel"]]:
                expected.append((e["t"], e["channel"], now_on))
                on[e["channel"]] = now_on
    assert motors == expected


def check_decodes_and_speech(events: list[dict], announce_repeat_ms: int) -> None:
    frames = {(e["t"], e["data"]) for e in of_kind(events, "frame")}
    decodes = of_kind(events, "decode")
    assert len(decodes) == len(frames)
    for e in decodes:
        assert (e["t"], e["message"] + "\n") in frames
    # At one instant the app takes the link's tokens before the user's events.
    user_times = set()
    for e in events:
        if e["kind"] in ("button", "utterance"):
            user_times.add(e["t"])
        elif e["kind"] == "decode":
            assert e["t"] not in user_times

    muted = False
    last_spoken: dict[str, int] = {}
    expected = []
    for e in events:
        if e["kind"] == "set_muted":
            muted = e["muted"]
        elif e["kind"] == "decode" and not muted:
            last = last_spoken.get(e["message"])
            if last is None or e["t"] - last >= announce_repeat_ms:
                last_spoken[e["message"]] = e["t"]
                expected.append((e["t"], e["message"]))
    assert [(e["t"], e["message"]) for e in of_kind(events, "speak")] == expected


def check_voice(events: list[dict], listen_window_ms: int, emergency_number: str) -> None:
    # A button opens a window until t + listen_window_ms; the first utterance
    # after it closes the window, and runs its command if it came in time.
    commands = {"i need help": ("call", emergency_number), "stop speaking": ("set_muted", True),
                "start speaking": ("set_muted", False)}
    deadline = None
    expected = []
    for e in events:
        if e["kind"] == "button":
            deadline = e["t"] + listen_window_ms
        elif e["kind"] == "utterance":
            if deadline is not None and e["t"] <= deadline and e["text"] in commands:
                expected.append((e["t"], *commands[e["text"]]))
            deadline = None
    assert [(e["t"], e["kind"], e["number"] if e["kind"] == "call" else e["muted"])
            for e in events if e["kind"] in ("call", "set_muted")] == expected


def example_config(repeat_interval_ms: int, announce_repeat_ms: int,
                   listen_window_ms: int = 10_000) -> dict:
    return {"schema_version": 1, "firmware": {"repeat_interval_ms": repeat_interval_ms},
            "app": {"announce_repeat_ms": announce_repeat_ms, "upload_interval_ms": 777,
                    "listen_window_ms": listen_window_ms}}


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(docs=run_docs())
# A ground obstacle throughout: frames every 700 ms, speech at most every 2 s,
# muted from 1.5 s to 3.5 s; the server is down until 2.5 s, so fixes queue.
# "stop speaking" comes exactly at the deadline of its 1.4 s window.
@example(docs=({"schema_version": 1, "duration_ms": 6000, "seed": 4,
                "channels": {"ground": [{"t": 0, "distance_cm": 40}]},
                "server_available": [{"t": 0, "value": False}, {"t": 2500, "value": True}],
                "user_events": [{"t": 100, "kind": "button"},
                                {"t": 1500, "kind": "utterance", "text": "stop speaking"},
                                {"t": 2500, "kind": "button"},
                                {"t": 3500, "kind": "utterance", "text": "start speaking"}]},
               example_config(700, 2000, 1400)))
# A side obstacle that comes and goes: each new alert sends a frame at once,
# and the announcement of a frame less than 5 s after the last one is dropped.
@example(docs=({"schema_version": 1, "duration_ms": 6000, "seed": 9,
                "channels": {"left": [{"t": 0, "distance_cm": 80}, {"t": 1000, "distance_cm": 300},
                                      {"t": 2000, "distance_cm": 50}]},
                "user_events": []},
               example_config(2000, 5000)))
# Obstacles on every channel: a round takes 90 ms and a pass 270 ms, so each
# repeat is due exactly one pass after the last frame.  The first ground frame
# and "stop speaking" share t=90: the token goes first and is spoken.
@example(docs=({"schema_version": 1, "duration_ms": 3000, "seed": 2,
                "channels": {"ground": [{"t": 0, "distance_cm": 40}],
                             "left": [{"t": 0, "distance_cm": 80}],
                             "right": [{"t": 0, "distance_cm": 90}]},
                "user_events": [{"t": 50, "kind": "button"},
                                {"t": 90, "kind": "utterance", "text": "stop speaking"}]},
               example_config(270, 1)))
def test_run_invariants(docs):
    doc, config_doc = docs
    config = config_from_dict(config_doc)
    trace = run_scenario(scenario_from_dict(doc), config)
    assert run_scenario(scenario_from_dict(doc), config).to_jsonl() == trace.to_jsonl()
    events = trace.events
    times = [e["t"] for e in events]
    assert times == sorted(times)
    check_uploads(events)
    check_alerts_and_frames(events, config_doc["firmware"])
    check_motor(events)
    check_decodes_and_speech(events, config_doc["app"]["announce_repeat_ms"])
    check_voice(events, config.app.listen_window_ms, config.app.emergency_number)
