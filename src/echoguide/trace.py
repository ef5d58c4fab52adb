"""Deterministic run record: a time-ordered list of events serialized as
JSON lines.

Two runs with identical inputs must produce byte-identical serializations,
so every event reads as a JSON-safe dict, serialization uses sorted keys
and fixed separators, and ordering is by virtual time with stable
insertion order on ties.

The three kinds a walk is mostly made of, no_echo, measurement and alert,
are built only as rows by row_*: tuples of their dict's values, checked
once when made, from which to_jsonl writes each line directly.  Reading
the events turns the rows into their dicts; any dict goes to the encoder.
"""

from __future__ import annotations

import contextlib
import json
import json.encoder
import os
import secrets
import stat
from collections import Counter
from typing import BinaryIO, Callable, Iterator, Optional

from .app import UploadAttempt
from .errors import ScenarioError
from .link import ObstacleMessage
from .world import Channel, SurfaceKind, Weather


# The serialization: json.dumps(event, sort_keys=True, ensure_ascii=False,
# separators=(",", ":")).
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _encoder() -> Callable[[object], str]:
    """_ENCODER.encode for the events of one _chunks call.  With json's C
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


# Each row kind's dict, the one dict form of its events: a row holds the
# dict's values in its key order.
_AS_DICT = {
    "no_echo": lambda r: {"t": r[0], "kind": "no_echo", "channel": r[2]},
    "measurement": lambda r: {"t": r[0], "kind": "measurement", "channel": r[2],
                              "measured_cm": r[3], "true_cm": r[4], "surface": r[5],
                              "weather": r[6]},
    "alert": lambda r: {"t": r[0], "kind": "alert", "channel": r[2], "distance_cm": r[3]},
}


# How many lines to_jsonl and write make text of at a time: a chunk's line
# objects, not the whole trace's, are held at once.
_CHUNK = 1024


# Paths under these name devices and open files, such as /dev/stdout or
# /proc/self/fd/1, which write takes for files with no contents to keep.
_DEVICE_DIRS = ("/dev/", "/proc/")


def _time(event) -> int:
    return event[0] if type(event) is tuple else event["t"]


class TraceLog:
    """Append-only event record with JSON-lines serialization.

    An event is a JSON-safe dict, or a row from row_no_echo,
    row_measurement or row_alert, which only `add` takes; `events` and
    `kind()` give every one as a dict.
    """

    def __init__(self, events: Optional[list[dict]] = None) -> None:
        self._events: list = list(events) if events else []
        self._rows = False  # whether add may have added rows since events was read

    def add(self, event: dict | tuple) -> None:
        self._events.append(event)
        self._rows = True

    @property
    def events(self) -> list[dict]:
        """The events as dicts: a row is turned into its dict, in place,
        on the first read after it was added."""
        events = self._events
        if self._rows:
            events[:] = [_AS_DICT[e[1]](e) if type(e) is tuple else e for e in events]
            self._rows = False
        return events

    def sort_by_time(self) -> None:
        """Stable sort by virtual time; same-time events keep insertion order."""
        self._events.sort(key=_time)

    def kind(self, kind: str) -> list[dict]:
        """The events of one kind; rows are turned into their dicts only
        for a row's kind."""
        events = self.events if kind in _AS_DICT else self._events
        return [e for e in events if type(e) is not tuple and e["kind"] == kind]

    def kind_counts(self) -> Counter[str]:
        """How many events there are of each kind, without a row's dict."""
        return Counter(e[1] if type(e) is tuple else e["kind"] for e in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def _chunks(self) -> Iterator[str]:
        """The lines to_jsonl joins, _CHUNK at a time, each chunk ending in
        a newline: a row's from its checked values, any dict's by the
        encoder, one encoder for all of them."""
        encode = _encoder()
        # A channel's measurements in one segment share its true_cm object, so
        # each channel keeps the last one with its text: (true_cm, text).
        last_cm: dict[str, tuple] = {}
        events = self._events
        for start in range(0, len(events), _CHUNK):
            lines: list[str] = []
            append = lines.append
            for event in events[start:start + _CHUNK]:
                if type(event) is not tuple:
                    append(encode(event))
                elif event[1] == "no_echo":
                    t, _, channel = event
                    append(f'{{"channel":"{channel}","kind":"no_echo","t":{t}}}')
                elif event[1] == "measurement":
                    t, _, channel, measured, true_cm, surface, weather = event
                    cm = last_cm.get(channel)
                    if cm is None or cm[0] is not true_cm:
                        text = "null" if true_cm is None else f"{true_cm}"
                        cm = last_cm[channel] = (true_cm, text)
                    append(f'{{"channel":"{channel}","kind":"measurement",'
                           f'"measured_cm":{measured},"surface":"{surface}","t":{t},'
                           f'"true_cm":{cm[1]},"weather":"{weather}"}}')
                else:
                    t, _, channel, distance = event
                    append(f'{{"channel":"{channel}","distance_cm":{distance},'
                           f'"kind":"alert","t":{t}}}')
            append("")  # the chunk's final newline, in its one join
            yield "\n".join(lines)

    def to_jsonl(self) -> str:
        """One line per event, as json.dumps(event, sort_keys=True,
        ensure_ascii=False, separators=(",", ":")) writes it."""
        return "".join(self._chunks())

    def write(self, path: str) -> None:
        """Write to_jsonl's text to `path` in UTF-8, one chunk at a time.

        A new file, or a regular one, is written through a temporary file
        beside it, which replaces it only once the whole trace is written: a
        trace that cannot be serialized or written leaves the file as it was,
        and no temporary file behind.  A new file gets the mode open gives
        it, 0o666 less the umask, and an old one keeps its mode; through a
        symlink, the file it points to is replaced.  Any other path, such as
        a FIFO, or a device or open file under /dev or /proc such as
        /dev/stdout, has no contents to keep and is written directly.  An
        OSError names `path`.
        """
        try:
            try:
                old = os.stat(path)
            except FileNotFoundError:
                old = None
            if old is not None and (not stat.S_ISREG(old.st_mode)
                                    or os.path.abspath(path).startswith(_DEVICE_DIRS)):
                with open(path, "wb") as fh:  # a directory raises IsADirectoryError here
                    self._stream(fh)
                return
            target = os.path.realpath(path)
            directory, name = os.path.split(target)
            temporary = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
            fh = open(temporary, "xb")
            try:
                with fh:
                    if old is not None:
                        os.chmod(temporary, stat.S_IMODE(old.st_mode))
                    self._stream(fh)
                os.replace(temporary, target)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temporary)
                raise
        except OSError as exc:
            exc.filename, exc.filename2 = path, None  # the caller's file, not the temporary one
            raise

    def _stream(self, fh: BinaryIO) -> None:
        for chunk in self._chunks():
            fh.write(chunk.encode("utf-8"))

    @classmethod
    def read(cls, path: str) -> "TraceLog":
        """Load a trace file of UTF-8 lines, each of which may start with a
        BOM; a line that is not a JSON object with `t` and `kind` raises
        ScenarioError naming path:lineno."""
        decode = json.JSONDecoder().decode
        events = []
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    try:  # UTF-8 as json.loads(line) decodes it, BOM and all
                        text = line.decode("utf-8", "surrogatepass")
                        event = decode(text.removeprefix("\ufeff"))
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
#
# The row_* functions check what their row's line takes for granted: exact
# ints, a true_cm that is None, an int or a finite float (inf - inf and
# nan - nan are nan), and enum members, whose values need no escaping.
# Given anything else, they raise TypeError naming the argument.  _HELD
# gives the exact types a row holds of each argument.
_HELD = {"t": (int,), "measured_cm": (int,), "distance_cm": (int,),
         "true_cm": (type(None), int, float), "channel": (Channel,),
         "surface": (SurfaceKind,), "weather": (Weather,)}


def row_measurement(t: int, channel: Channel, measured_cm: int,
                    true_cm: Optional[float], surface: SurfaceKind,
                    weather: Weather) -> tuple:
    if (type(t) is int and type(measured_cm) is int
            and (true_cm is None or type(true_cm) is int
                 or type(true_cm) is float and true_cm - true_cm == 0.0)
            and type(channel) is Channel and type(surface) is SurfaceKind
            and type(weather) is Weather):
        return (t, "measurement", channel._value_, measured_cm, true_cm,
                surface._value_, weather._value_)
    raise _refused("row_measurement", t=t, channel=channel, measured_cm=measured_cm,
                   true_cm=true_cm, surface=surface, weather=weather)


def row_no_echo(t: int, channel: Channel) -> tuple:
    if type(t) is int and type(channel) is Channel:
        return (t, "no_echo", channel._value_)
    raise _refused("row_no_echo", t=t, channel=channel)


def row_alert(t: int, channel: Channel, distance_cm: int) -> tuple:
    if type(t) is int and type(distance_cm) is int and type(channel) is Channel:
        return (t, "alert", channel._value_, distance_cm)
    raise _refused("row_alert", t=t, channel=channel, distance_cm=distance_cm)


def _refused(function: str, **args) -> TypeError:
    """The TypeError naming the first of `function`'s arguments that its
    row cannot hold: one not of a type _HELD gives it, or a float not finite."""
    name = next(name for name, value in args.items() if type(value) not in _HELD[name]
                or type(value) is float and value - value != 0.0)
    return TypeError(f"{function}: {name} cannot be {type(args[name]).__name__} {args[name]!r}")


def ev_motor(t: int, channel: Channel, vibrating: bool) -> dict:
    return {"t": t, "kind": "motor", "channel": channel._value_, "vibrating": vibrating}


def ev_frame(t: int, data: bytes) -> dict:
    return {"t": t, "kind": "frame", "data": data.decode("ascii")}


def ev_decode(t: int, message: ObstacleMessage) -> dict:
    return {"t": t, "kind": "decode", "message": message._value_}


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
    "TraceLog", "row_measurement", "row_no_echo", "row_alert", "ev_motor",
    "ev_frame", "ev_decode", "ev_speak", "ev_set_muted",
    "ev_call", "ev_button", "ev_utterance", "ev_upload", "ev_server_ack",
]
