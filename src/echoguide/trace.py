"""Deterministic run record: a time-ordered list of events serialized as
JSON lines.

Two runs with identical inputs must produce byte-identical serializations,
so events are plain JSON-safe dicts, serialization uses sorted keys and
fixed separators, and ordering is by virtual time with stable insertion
order on ties.
"""

from __future__ import annotations

import json
import json.encoder
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .app import UploadAttempt
from .errors import ScenarioError
from .link import ObstacleMessage
from .world import Channel, SurfaceKind, Weather


# The serialization: json.dumps(event, sort_keys=True, ensure_ascii=False,
# separators=(",", ":")).
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _encoder() -> Callable[[object], str]:
    """_ENCODER.encode for the events of one to_jsonl call.  With json's C
    encoder, it is built once, as encode builds it for every call, with its
    own markers for the circular-reference check; without it, this is
    _ENCODER.encode, on the pure-Python encoder."""
    make = json.encoder.c_make_encoder
    if make is None:
        return _ENCODER.encode
    e = _ENCODER
    encode = make({}, e.default, json.encoder.encode_basestring, e.indent, e.key_separator,
                  e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda event: "".join(encode(event, 0))


# The hot kinds (no_echo, measurement and alert) are written as json.dumps
# writes them when their event has exactly the keys its ev_* function gives
# it, exact ints (true_cm: None, an int or a finite float) and strings that
# are enum values, which need no escaping.  Any other event goes through the
# encoder.
_CHANNELS = frozenset(c.value for c in Channel)
_SURFACES = frozenset(s.value for s in SurfaceKind)
_WEATHERS = frozenset(w.value for w in Weather)


class TraceLog:
    """Append-only event record with JSON-lines serialization."""

    def __init__(self, events: Optional[list[dict]] = None) -> None:
        self.events: list[dict] = list(events) if events else []

    def add(self, event: dict) -> None:
        self.events.append(event)

    def sort_by_time(self) -> None:
        """Stable sort by virtual time; same-time events keep insertion order."""
        self.events.sort(key=itemgetter("t"))

    def kind(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def to_jsonl(self) -> str:
        encode = _encoder()
        lines: list[str] = []
        append = lines.append
        for event in self.events:
            # The key set is checked by its size and each key's presence: a
            # value of the right type shows its key is there, and true_cm,
            # which may be None, is looked for.  Values are read by key, as
            # the line is sorted whatever the event's key order.
            kind = event.get("kind")
            if kind == "no_echo":
                if len(event) == 3 and type(kind) is str:
                    t = event.get("t")
                    channel = event.get("channel")
                    if type(t) is int and type(channel) is str and channel in _CHANNELS:
                        append(f'{{"channel":"{channel}","kind":"no_echo","t":{t}}}')
                        continue
            elif kind == "measurement":
                if len(event) == 7 and type(kind) is str and "true_cm" in event:
                    t = event.get("t")
                    channel = event.get("channel")
                    measured = event.get("measured_cm")
                    true_cm = event["true_cm"]
                    surface = event.get("surface")
                    weather = event.get("weather")
                    if (type(t) is int and type(measured) is int
                            and (true_cm is None or type(true_cm) is int
                                 # finite: inf - inf and nan - nan are nan
                                 or type(true_cm) is float and true_cm - true_cm == 0.0)
                            and type(channel) is str and channel in _CHANNELS
                            and type(surface) is str and surface in _SURFACES
                            and type(weather) is str and weather in _WEATHERS):
                        append(f'{{"channel":"{channel}","kind":"measurement",'
                               f'"measured_cm":{measured},"surface":"{surface}","t":{t},'
                               f'"true_cm":{"null" if true_cm is None else true_cm},'
                               f'"weather":"{weather}"}}')
                        continue
            elif kind == "alert":
                if len(event) == 4 and type(kind) is str:
                    t = event.get("t")
                    channel = event.get("channel")
                    distance = event.get("distance_cm")
                    if (type(t) is int and type(distance) is int
                            and type(channel) is str and channel in _CHANNELS):
                        append(f'{{"channel":"{channel}","distance_cm":{distance},'
                               f'"kind":"alert","t":{t}}}')
                        continue
            append(encode(event))
        append("")  # the final newline; one join, with no second copy of the text
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Write the trace to `path`; one that cannot be serialized leaves the file as it was."""
        data = self.to_jsonl().encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def read(cls, path: str) -> "TraceLog":
        """Load a trace file; a line that is not a JSON object with `t` and
        `kind` raises ScenarioError naming path:lineno."""
        events = []
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        event = json.loads(line)
                    except ValueError:  # not JSON, or not UTF-8
                        event = None
                    if not (isinstance(event, dict) and "t" in event and "kind" in event):
                        raise ScenarioError(f"{path}:{lineno}: not a trace event")
                    events.append(event)
        return cls(events)


# -- event constructors ------------------------------------------------------
#
# Enum values are read as the plain `_value_` attribute: `.value` is a
# Python-level property, and these run once or more per firmware round.


def ev_measurement(t: int, channel: Channel, measured_cm: int,
                   true_cm: Optional[float], surface: SurfaceKind,
                   weather: Weather) -> dict:
    return {
        "t": t, "kind": "measurement", "channel": channel._value_,
        "measured_cm": measured_cm, "true_cm": true_cm,
        "surface": surface._value_, "weather": weather._value_,
    }


def ev_no_echo(t: int, channel: Channel) -> dict:
    return {"t": t, "kind": "no_echo", "channel": channel._value_}


def ev_alert(t: int, channel: Channel, distance_cm: int) -> dict:
    return {"t": t, "kind": "alert", "channel": channel._value_, "distance_cm": distance_cm}


def ev_motor(t: int, channel: Channel, vibrating: bool) -> dict:
    return {"t": t, "kind": "motor", "channel": channel._value_, "vibrating": vibrating}


def ev_frame(t: int, data: bytes) -> dict:
    return {"t": t, "kind": "frame", "data": data.decode("ascii")}


def ev_decode(t: int, message: ObstacleMessage) -> dict:
    return {"t": t, "kind": "decode", "message": message._value_}


def ev_unknown_token(t: int, token: str) -> dict:
    return {"t": t, "kind": "unknown_token", "token": token}


def ev_speak(t: int, message: ObstacleMessage, language: str, text: str) -> dict:
    return {"t": t, "kind": "speak", "message": message._value_,
            "language": language, "text": text}


def ev_set_muted(t: int, muted: bool) -> dict:
    return {"t": t, "kind": "set_muted", "muted": muted}


def ev_call(t: int, number: str) -> dict:
    return {"t": t, "kind": "call", "number": number}


def ev_button(t: int) -> dict:
    return {"t": t, "kind": "button"}


def ev_utterance(t: int, text: str) -> dict:
    return {"t": t, "kind": "utterance", "text": text}


def ev_upload(attempt: UploadAttempt) -> dict:
    return {"t": attempt.due_ms, "kind": "upload", **attempt.fix,
            "outcome": "delivered" if attempt.delivered else "queued"}


def ev_server_ack(t: int, record_id: int, device_id: str, timestamp: str) -> dict:
    return {"t": t, "kind": "server_ack", "id": record_id,
            "device_id": device_id, "timestamp": timestamp}


__all__ = [
    "TraceLog", "ev_measurement", "ev_no_echo", "ev_alert", "ev_motor",
    "ev_frame", "ev_decode", "ev_unknown_token", "ev_speak", "ev_set_muted",
    "ev_call", "ev_button", "ev_utterance", "ev_upload", "ev_server_ack",
]
