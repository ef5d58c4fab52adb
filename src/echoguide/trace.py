"""Deterministic run record: a time-ordered list of events serialized as
JSON lines.

Two runs with identical inputs must produce byte-identical serializations,
so events are plain JSON-safe dicts, serialization uses sorted keys and
fixed separators, and ordering is by virtual time with stable insertion
order on ties.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring
from typing import Iterator, Optional

from .app import ObstacleMessage, UploadAttempt
from .errors import ScenarioError
from .world import Channel, SurfaceKind, Weather


# The serialization: json.dumps(event, sort_keys=True, ensure_ascii=False,
# separators=(",", ":")).  _ENCODER.encode would build a new C encoder for
# every event, so to_jsonl builds one per trace, with the arguments that
# _ENCODER.iterencode passes it; a fresh markers dict keeps the circular
# check.  Without the C accelerator, iterencode is the pure-Python encoder.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))

# The hot kinds, written as json.dumps writes them when their event is
# exactly what its ev_* function builds: these keys in this order, exact
# ints (true_cm: None, an int or a finite float) and strings that are enum
# values, which need no escaping.  Any other event goes through the encoder.
_MEASUREMENT_KEYS = ("t", "kind", "channel", "measured_cm", "true_cm", "surface", "weather")
_ALERT_KEYS = ("t", "kind", "channel", "distance_cm")
_NO_ECHO_KEYS = ("t", "kind", "channel")
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
        self.events.sort(key=lambda e: e["t"])

    def kind(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def to_jsonl(self) -> str:
        if c_make_encoder is None:
            encode = _ENCODER.iterencode
        else:
            e = _ENCODER
            encode = c_make_encoder({}, e.default, encode_basestring, e.indent, e.key_separator,
                                    e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
        lines: list[str] = []
        append = lines.append
        for event in self.events:
            keys = tuple(event)
            if keys == _MEASUREMENT_KEYS:
                t, kind, channel, measured, true_cm, surface, weather = event.values()
                if (type(t) is int and type(measured) is int
                        and (true_cm is None or type(true_cm) is int
                             # finite: inf - inf and nan - nan are nan
                             or type(true_cm) is float and true_cm - true_cm == 0.0)
                        and type(kind) is str and kind == "measurement"
                        and type(channel) is str and channel in _CHANNELS
                        and type(surface) is str and surface in _SURFACES
                        and type(weather) is str and weather in _WEATHERS):
                    append(f'{{"channel":"{channel}","kind":"measurement",'
                           f'"measured_cm":{measured},"surface":"{surface}","t":{t},'
                           f'"true_cm":{"null" if true_cm is None else true_cm},'
                           f'"weather":"{weather}"}}')
                    continue
            elif keys == _ALERT_KEYS:
                t, kind, channel, distance = event.values()
                if (type(t) is int and type(distance) is int and type(kind) is str
                        and kind == "alert" and type(channel) is str and channel in _CHANNELS):
                    append(f'{{"channel":"{channel}","distance_cm":{distance},'
                           f'"kind":"alert","t":{t}}}')
                    continue
            elif keys == _NO_ECHO_KEYS:
                t, kind, channel = event.values()
                if (type(t) is int and type(kind) is str and kind == "no_echo"
                        and type(channel) is str and channel in _CHANNELS):
                    append(f'{{"channel":"{channel}","kind":"no_echo","t":{t}}}')
                    continue
            append("".join(encode(event, 0)))
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


def ev_measurement(t: int, channel: Channel, measured_cm: int,
                   true_cm: Optional[float], surface: SurfaceKind,
                   weather: Weather) -> dict:
    return {
        "t": t, "kind": "measurement", "channel": channel.value,
        "measured_cm": measured_cm, "true_cm": true_cm,
        "surface": surface.value, "weather": weather.value,
    }


def ev_no_echo(t: int, channel: Channel) -> dict:
    return {"t": t, "kind": "no_echo", "channel": channel.value}


def ev_alert(t: int, channel: Channel, distance_cm: int) -> dict:
    return {"t": t, "kind": "alert", "channel": channel.value, "distance_cm": distance_cm}


def ev_motor(t: int, channel: Channel, vibrating: bool) -> dict:
    return {"t": t, "kind": "motor", "channel": channel.value, "vibrating": vibrating}


def ev_frame(t: int, data: bytes) -> dict:
    return {"t": t, "kind": "frame", "data": data.decode("ascii")}


def ev_decode(t: int, message: ObstacleMessage) -> dict:
    return {"t": t, "kind": "decode", "message": message.value}


def ev_unknown_token(t: int, token: str) -> dict:
    return {"t": t, "kind": "unknown_token", "token": token}


def ev_speak(t: int, message: ObstacleMessage, language: str, text: str) -> dict:
    return {"t": t, "kind": "speak", "message": message.value,
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
