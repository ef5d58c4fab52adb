"""TraceLog.to_jsonl against json.dumps: one line per event, byte for byte,
with the C encoder it builds once per trace and with the pure-Python
encoder it falls back to."""

from __future__ import annotations

import json

import pytest

from echoguide import trace
from echoguide.trace import TraceLog

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
    monkeypatch.setattr(trace, "c_make_encoder", None)


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


def test_empty_trace_is_empty_text():
    assert TraceLog().to_jsonl() == ""
