"""Deterministic run record: a time-ordered list of events serialized as
JSON lines.

Two runs with identical inputs must produce byte-identical serializations,
so events are plain JSON-safe dicts, serialization uses sorted keys and
fixed separators, and ordering is by virtual time with stable insertion
order on ties.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from .app import ObstacleMessage, UploadAttempt
from .world import Channel, SurfaceKind, Weather


def _dump(event: dict) -> str:
    return json.dumps(event, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


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
        return "".join(_dump(e) + "\n" for e in self.events)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def read(cls, path: str) -> "TraceLog":
        events = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
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
    fix = attempt.fix
    return {
        "t": attempt.due_ms, "kind": "upload",
        "device_id": fix.device_id, "latitude": fix.latitude,
        "longitude": fix.longitude, "timestamp": fix.timestamp,
        "provider": fix.provider.value,
        "outcome": "delivered" if attempt.delivered else "queued",
    }


def ev_server_ack(t: int, record_id: int, device_id: str, timestamp: str) -> dict:
    return {"t": t, "kind": "server_ack", "id": record_id,
            "device_id": device_id, "timestamp": timestamp}


__all__ = [
    "TraceLog", "ev_measurement", "ev_no_echo", "ev_alert", "ev_motor",
    "ev_frame", "ev_decode", "ev_unknown_token", "ev_speak", "ev_set_muted",
    "ev_call", "ev_button", "ev_utterance", "ev_upload", "ev_server_ack",
]
