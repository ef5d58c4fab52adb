"""TraceLog.to_jsonl against json.dumps: one line per event, byte for byte,
with json's C encoder, with the pure-Python encoder json falls back to, and
on the lines it writes directly for the hot kinds."""

from __future__ import annotations

import hashlib
import json
import json.encoder
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, SCENARIO_DIR
from echoguide import trace
from echoguide.harness import distance_error_experiment, run_scenario
from echoguide.trace import TraceLog, ev_alert, ev_measurement, ev_no_echo
from echoguide.world import Channel, SurfaceKind, Weather, load_scenario

EVENTS = [
    {"t": 0, "kind": "speak", "message": "Ground", "language": "bn",
     "text": "সাবধান, সামনে নিচে বাধা"},
    {"t": 1, "kind": "utterance", "text": 'quote " backslash \\ slash /'},
    {"t": 2, "kind": "frame", "data": "\x00\x01\x08\t\n\r\x1f\x7f  \ud800"},
    {"t": 3, "kind": "x", "none": None, "yes": True, "no": False},
    {"t": 4, "kind": "x", "floats": [0.1, 1e-7, 1e16, -0.0, 2.5e-308, 1.7976931348623157e308]},
    {"t": 5, "kind": "x", "ints": [0, -1, 2**53 + 1, 2**64, -(2**70), 10**40]},
    {"t": 6, "kind": "x", "non_finite": [float("inf"), float("-inf"), float("nan")]},
    {"t": 7, "kind": "x", "nested": {"b": [1, {"d": 2, "c": None}], "a": {}, "é": []},
     "int_keys": {10: "ten", 2: "two"}},
    {"t": 8, "kind": "x", "tuple": (1, "two"), "z": "last key", "A": "first key"},
]


def dumps(event: dict) -> str:
    return json.dumps(event, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def expected_lines(events) -> str:
    return "".join(dumps(event) + "\n" for event in events)


def c_encoder_off(monkeypatch) -> None:
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)


ENCODERS = pytest.mark.parametrize("switch", [lambda mp: None, c_encoder_off],
                                   ids=["C encoder", "pure-Python fallback"])


@ENCODERS
def test_to_jsonl_is_json_dumps_line_by_line(monkeypatch, switch):
    switch(monkeypatch)
    assert TraceLog(EVENTS).to_jsonl() == expected_lines(EVENTS)
    for event in EVENTS:
        assert TraceLog([event]).to_jsonl() == dumps(event) + "\n"


@ENCODERS
def test_circular_event_still_raises(monkeypatch, switch):
    switch(monkeypatch)
    loop: dict = {"t": 0, "kind": "x"}
    loop["self"] = [loop]
    with pytest.raises(ValueError, match="ircular"):
        TraceLog([EVENTS[0], loop]).to_jsonl()
    # One trace's markers do not carry over to the next.
    assert TraceLog(EVENTS).to_jsonl() == expected_lines(EVENTS)


@ENCODERS
def test_unencodable_value_raises_type_error(monkeypatch, switch):
    switch(monkeypatch)
    with pytest.raises(TypeError):
        TraceLog([{"t": 0, "kind": "x", "data": b"bytes"}]).to_jsonl()


@ENCODERS
def test_shared_values_are_not_circular(monkeypatch, switch):
    switch(monkeypatch)
    shared = {"channel": "ground"}
    events = [{"t": i, "kind": "x", "a": shared, "b": [shared, shared]} for i in range(3)]
    assert TraceLog(events).to_jsonl() == expected_lines(events)


def test_pure_python_encoder_gives_the_pinned_bytes(monkeypatch):
    pins = json.loads((REPO_ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    c_encoder_off(monkeypatch)
    assert sorted(pins["bundled"]) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
    for name, digest in pins["bundled"].items():
        walk = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        assert hashlib.sha256(walk.to_jsonl().encode("utf-8")).hexdigest() == digest, name
    experiment = distance_error_experiment()
    assert hashlib.sha256(experiment.to_jsonl().encode("utf-8")).hexdigest() == \
        pins["experiment"]["trace"]


def test_empty_trace_is_empty_text():
    assert TraceLog().to_jsonl() == ""


@pytest.mark.parametrize("value, error", [(b"bytes", TypeError), ("\ud800", UnicodeEncodeError)],
                         ids=["bytes", "lone surrogate"])
def test_write_that_cannot_serialize_leaves_the_old_file(tmp_path, value, error):
    path = tmp_path / "trace.jsonl"
    old = [{"t": 0, "kind": "speak", "text": "সাবধান"}]
    TraceLog(old).write(path)
    with pytest.raises(error):
        TraceLog([*old, {"t": 1, "kind": "x", "data": value}]).write(path)
    assert path.read_text(encoding="utf-8") == expected_lines(old)


# -- the hot kinds: measurement, alert and no_echo -------------------------------


class OddStr(str):
    """Encodes as its text, but formats as something else."""

    def __str__(self) -> str:
        return "odd"


class LyingStr(str):
    """Encodes as its text, but claims to equal anything."""

    def __eq__(self, other: object) -> bool:
        return True

    __hash__ = str.__hash__


class OddInt(int):
    def __str__(self) -> str:
        return "odd"

    __repr__ = __str__


PRISTINE = [
    ev_measurement(0, Channel.GROUND, 51, 50.0, SurfaceKind.TILES, Weather.DRY),
    ev_measurement(10, Channel.LEFT, 1, None, SurfaceKind.CONCRETE, Weather.WET),
    ev_measurement(20, Channel.RIGHT, 600, 600, SurfaceKind.TILES, Weather.WET),
    ev_alert(30, Channel.GROUND, 40),
    ev_no_echo(40, Channel.RIGHT),
]
MEASUREMENT, _, _, ALERT, NO_ECHO = PRISTINE


def test_pristine_hot_events_do_not_reach_the_encoder():
    def no_encoder(event):
        raise AssertionError(f"encoded {event}")

    with mock.patch.object(trace, "_encoder", lambda: no_encoder):
        assert TraceLog(PRISTINE).to_jsonl() == expected_lines(PRISTINE)


ODD_VALUES = [
    None, True, False, 0, -7, 2**70, OddInt(5), 0.5, 1.0, -0.0, 1e16, 1e-7,
    float("nan"), float("inf"), float("-inf"), "ground", "tiles", "dry", "measurement",
    "alert", "no_echo", 'gro"und', "ground\\", "grass", "", "é", OddStr("ground"),
    OddStr("measurement"), LyingStr("alarm"), [1, "ground"], {"b": 1, "a": None},
]
EXTRA_KEYS = ["a", "extra", "t", "kind", "zz", "channel", "true_cm"]


@st.composite
def mutated_hot_events(draw) -> dict:
    """A hot-kind event as its ev_* function builds it, then mutated: keys
    reordered, added or dropped, and values swapped for odd ones."""
    t = draw(st.integers(0, 10**7))
    channel = draw(st.sampled_from(Channel))
    kind = draw(st.sampled_from(["measurement", "alert", "no_echo"]))
    if kind == "measurement":
        true_cm = draw(st.one_of(st.none(), st.integers(0, 700), st.floats(allow_nan=True)))
        event = ev_measurement(t, channel, draw(st.integers(-5, 10**6)), true_cm,
                               draw(st.sampled_from(SurfaceKind)), draw(st.sampled_from(Weather)))
    elif kind == "alert":
        event = ev_alert(t, channel, draw(st.integers(0, 700)))
    else:
        event = ev_no_echo(t, channel)
    items = list(event.items())
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(["swap", "add", "drop", "reorder"]))
        if mutation == "swap" and items:
            i = draw(st.integers(0, len(items) - 1))
            items[i] = (items[i][0], draw(st.sampled_from(ODD_VALUES)))
        elif mutation == "add":
            key = draw(st.sampled_from(EXTRA_KEYS))
            items = [item for item in items if item[0] != key]
            items.insert(draw(st.integers(0, len(items))), (key, draw(st.sampled_from(ODD_VALUES))))
        elif mutation == "drop" and items:
            del items[draw(st.integers(0, len(items) - 1))]
        elif mutation == "reorder":
            items = draw(st.permutations(items))
    return dict(items)


def with_value(event: dict, key: str, value) -> dict:
    return {k: (value if k == key else v) for k, v in event.items()}


def renamed(event: dict, key: str, new_key: str) -> dict:
    return {(new_key if k == key else k): v for k, v in event.items()}


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(events=st.lists(mutated_hot_events(), min_size=1, max_size=4))
@example(events=[with_value(MEASUREMENT, "t", True), with_value(ALERT, "t", 3.0),
                 with_value(NO_ECHO, "t", OddInt(4)), with_value(ALERT, "distance_cm", False)])
@example(events=[with_value(MEASUREMENT, "true_cm", value)
                 for value in (float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 7)])
@example(events=[with_value(NO_ECHO, "channel", 'gro"und'), with_value(ALERT, "channel", "\\"),
                 with_value(MEASUREMENT, "surface", "grass"),
                 with_value(MEASUREMENT, "weather", OddStr("dry")),
                 with_value(NO_ECHO, "kind", OddStr("no_echo")),
                 with_value(ALERT, "kind", LyingStr("alarm")),
                 with_value(MEASUREMENT, "measured_cm", OddInt(50))])
@example(events=[dict(reversed(list(MEASUREMENT.items()))), {**ALERT, "extra": 1},
                 {k: v for k, v in MEASUREMENT.items() if k != "true_cm"}])
# The exact key set: seven keys but no true_cm (whose value may be None, as a
# missing key reads), three keys but no channel, and the right keys in
# another order.
@example(events=[renamed(with_value(MEASUREMENT, "true_cm", None), "true_cm", "true_mm"),
                 renamed(NO_ECHO, "channel", "chanel"),
                 {key: ALERT[key] for key in ("distance_cm", "channel", "t", "kind")}])
def test_hot_kinds_are_written_as_json_dumps_writes_them(events):
    expected = expected_lines(events)
    assert TraceLog(events).to_jsonl() == expected
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        assert TraceLog(events).to_jsonl() == expected
