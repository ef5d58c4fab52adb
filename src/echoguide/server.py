"""Location-tracking service: validates posted fixes, persists them to an
append-only JSON-lines file, and answers latest/history queries.

The service core is transport-free so the simulation harness can call it
in-process; ``main()`` serves the same core over HTTP for real clients,
from httploop's one selectors loop on one thread.  With a store path, as
the server always has, every accepted fix is written and fsynced before
the caller sees a response, so a restart answers queries identically.

The store indexes fixes by device, each device's list sorted by
(timestamp, id) on its first query and kept sorted after, so latest is
O(1) and history O(limit).  The routes only answer: httploop frames each
request, answers every other method and holds the limits.  A GET reply is
encoded once per change of its device's fixes and its bytes sent again
until a POST changes them, at most two stored replies (latest, history)
per device.
"""

from __future__ import annotations

import argparse
import bisect
import json
import operator
import os
import re
import signal
import sys
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Sequence
from urllib.parse import parse_qs, urlsplit

from .httploop import Connection, LoopServer, digits
from .jsonread import FIX, parse_instant, read_json

DEFAULT_LISTEN = "127.0.0.1:8750"
DEFAULT_STORE = "locations.jsonl"
DEFAULT_HISTORY_LIMIT = 1000

ENV_LISTEN = "ECHOGUIDE_LISTEN"
ENV_STORE = "ECHOGUIDE_STORE"


class FixValidationError(ValueError):
    """A posted fix failed validation.  The message reads '<field>: <reason>',
    and .field (set by read_json) names the field, or "body" when the body
    is not a JSON object."""


class StorageError(RuntimeError):
    """The persistence layer failed mid-operation."""


@dataclass(slots=True)
class FixRecord:
    """A stored fix.  Never mutated once made: the HTTP adapter reuses a
    reply's bytes while a query returns the same record objects."""

    id: int
    device_id: str
    latitude: float
    longitude: float
    timestamp: str  # ISO-8601 UTC with 'Z' suffix
    provider: str  # "gps" | "network"

    def as_dict(self) -> dict:
        """The fields in declaration order, as asdict gives them, without its deep copy."""
        return {"id": self.id, "device_id": self.device_id, "latitude": self.latitude,
                "longitude": self.longitude, "timestamp": self.timestamp,
                "provider": self.provider}


# A line as TrackStore.insert writes it: json.dumps(..., sort_keys=True).  Its
# strings are printable ASCII other than a quote or a backslash (json.dumps
# escapes the rest) and its coordinates carry a fraction or an exponent, so
# int(), float() and decode() read the groups as json.loads reads the line.
_STR = rb'"([ !#-\[\]-~]*)"'
_FLOAT = rb"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_CANONICAL_LINE = re.compile(
    rb'\{"device_id": ' + _STR + rb', "id": ([1-9][0-9]*), "latitude": ' + _FLOAT
    + rb', "longitude": ' + _FLOAT + rb', "provider": ' + _STR + rb', "timestamp": ' + _STR
    + rb"\}\n").fullmatch


_JSON_TYPES = {"integer": (int,), "number": (int, float)}  # as json.loads makes them


def _json_field(doc: dict, name: str, kind: str):
    """doc[name] if it is a JSON integer or number, as kind says, and not a
    bool or a string, which int() and float() would take too."""
    value = doc[name]
    if type(value) not in _JSON_TYPES[kind]:
        raise TypeError(f"{name} must be a JSON {kind}, not {value!r}")
    return value


class _Names(dict):
    """Decoded names, kept once each: a store holds few device ids and providers."""

    def __missing__(self, raw: bytes) -> str:
        self[raw] = name = raw.decode()
        return name


parse_record_timestamp = parse_instant  # the parsed instant of a stored timestamp


def validate_fix(body: object) -> dict:
    """The canonical field dict of a decoded POST body, which must be a JSON
    object of exactly the fields of a fix, each valid; the error names the
    field at fault."""
    return read_json(body, FIX, FixValidationError, "body")


class TrackStore:
    """Append-only JSON-lines store of fixes; loads its file on startup.

    Appends are serialized through one lock and made durable (unbuffered
    write, then fsync) before insert() returns, so reloading the same path
    reconstructs an identical store.  An append that fails is truncated
    back out of the file, and neither the records nor the index see it.
    A store with no path has no file and does no I/O; it validates, numbers,
    indexes and answers as one with a path does.

    Besides the records in id order, the store indexes them by device.  A
    device's list starts in id order and is sorted by (timestamp, id) the
    first time recent() asks for it, so loading parses no timestamps; from
    then on each insert keeps it sorted, comparing its key with the list's
    last key, which the store keeps.  A stored record that validate_fix
    would refuse, such as one whose timestamp does not parse, makes that
    first sort raise StorageError naming the record and the field.

    The load reads a line as insert() writes it with one regular-expression
    match, and any other line through json.loads; both give the same record.
    Ids must be JSON integers that run 1..n, and coordinates JSON numbers
    (not strings or booleans, as validate_fix requires).  A last line with
    no newline is a torn append that was never acknowledged: it is truncated
    away with a warning on stderr.  Any other bad line raises StorageError
    naming path:lineno.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._records: list[FixRecord] = []
        self._by_device: dict[str, list[FixRecord]] = {}
        self._last_key: dict[str, tuple[datetime, int]] = {}  # of each sorted device
        self._size = 0  # bytes of whole lines in the file
        self._fh = None
        if path is None:
            return
        records, by_device = self._records, self._by_device
        torn_bytes = 0
        names = _Names()
        if os.path.exists(path):
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.endswith(b"\n"):  # only the last line can lack one
                        torn_bytes = len(line)
                        break
                    if line.isspace():
                        continue
                    match = _CANONICAL_LINE(line)
                    try:
                        if match:
                            device, id_text, lat, lon, provider, timestamp = match.groups()
                            record = FixRecord(int(id_text), names[device], float(lat), float(lon),
                                               timestamp.decode(), names[provider])
                        else:
                            doc = json.loads(line.decode("utf-8"))
                            record = FixRecord(
                                id=_json_field(doc, "id", "integer"),
                                device_id=doc["device_id"],
                                latitude=float(_json_field(doc, "latitude", "number")),
                                longitude=float(_json_field(doc, "longitude", "number")),
                                timestamp=doc["timestamp"],
                                provider=doc["provider"],
                            )
                        fixes = by_device.get(record.device_id)  # TypeError if unhashable
                    except (ValueError, KeyError, TypeError, OverflowError) as exc:
                        raise StorageError(f"{path}:{lineno}: corrupt record ({exc})") from None
                    if record.id != len(records) + 1:
                        raise StorageError(f"{path}:{lineno}: expected id {len(records) + 1}, "
                                           f"found {record.id}")
                    records.append(record)
                    if fixes is None:
                        by_device[record.device_id] = [record]
                    else:
                        fixes.append(record)
                self._size = fh.tell() - torn_bytes
        self._fh = open(path, "ab", buffering=0)
        if torn_bytes:
            self._truncate()
            print(f"warning: {path}: truncated a torn last line of {torn_bytes} bytes "
                  f"at byte {self._size}", file=sys.stderr)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()

    def _truncate(self) -> None:
        """Cut the file back to its last whole line and make that durable."""
        os.ftruncate(self._fh.fileno(), self._size)
        os.fsync(self._fh.fileno())

    def insert(self, body: object) -> FixRecord:
        """validate_fix the body, then assign the next id, persist durably (given
        a path) and expose the record.  A refused body writes nothing, takes no id."""
        fields = validate_fix(body)
        with self._lock:
            record = FixRecord(id=len(self._records) + 1, **fields)
            if self._fh is not None:
                line = (json.dumps(record.as_dict(), sort_keys=True) + "\n").encode("utf-8")
                try:
                    view = memoryview(line)
                    while view:
                        view = view[self._fh.write(view):]
                    os.fsync(self._fh.fileno())
                except (OSError, ValueError) as exc:
                    message = f"failed to persist fix: {exc}"
                    try:
                        self._truncate()
                    except (OSError, ValueError) as cut:
                        message += f"; truncating back to byte {self._size} failed: {cut}"
                    raise StorageError(message) from None
                self._size += len(line)
            self._records.append(record)
            fixes = self._by_device.setdefault(record.device_id, [])
            last = self._last_key.get(record.device_id)
            if last is None:
                fixes.append(record)
                return record
            key = self._sort_key(record)
            if key < last:
                fixes.insert(bisect.bisect(fixes, key, key=self._sort_key), record)
            else:
                fixes.append(record)
                self._last_key[record.device_id] = key
            return record

    def records(self) -> list[FixRecord]:
        with self._lock:
            return list(self._records)

    def recent(self, device_id: str, limit: int) -> list[FixRecord]:
        """A device's last `limit` fixes by (timestamp, id), oldest first."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._lock:
            fixes = self._by_device.get(device_id)
            if not fixes:
                return []
            if device_id not in self._last_key:
                fixes.sort(key=self._checked_key)  # all or nothing: a raise leaves it as it was
                self._last_key[device_id] = self._sort_key(fixes[-1])
            return fixes[-limit:]

    def _sort_key(self, record: FixRecord) -> tuple[datetime, int]:
        """The (timestamp, id) key of a record known valid: insert ran
        validate_fix on it, or the device's first sort checked it."""
        return parse_instant(record.timestamp), record.id

    def _checked_key(self, record: FixRecord) -> tuple[datetime, int]:
        """_sort_key, once the record is checked as validate_fix checks a body."""
        fields = record.as_dict()
        del fields["id"]
        try:
            read_json(fields, FIX, ValueError, "record")
        except ValueError as exc:
            name = exc.field  # type: ignore[attr-defined]
            raise StorageError(f"{self.path}: record {record.id}: {name} "
                               f"{fields[name]!r} is invalid ({exc})") from None
        return self._sort_key(record)


class TrackService:
    """Transport-independent API core shared by HTTP and in-process callers:
    pass-throughs to the store, kept because perfbench/tracing.py wraps them
    by name."""

    def __init__(self, store: TrackStore) -> None:
        self.store = store

    def insert_fix(self, body: object) -> FixRecord:
        return self.store.insert(body)

    def latest_fix(self, device_id: str) -> Optional[FixRecord]:
        """Newest fix by timestamp; ties broken by the later insert."""
        fixes = self.store.recent(device_id, 1)
        return fixes[0] if fixes else None

    def history(self, device_id: str, limit: int) -> list[FixRecord]:
        """The most recent `limit` fixes, ascending by timestamp (id on ties)."""
        return self.store.recent(device_id, limit)


# --------------------------------------------------------------------------
# HTTP adapter: the routes, served by httploop's selectors loop.
# --------------------------------------------------------------------------


class TrackRequestHandler(Connection):
    """The tracking API's routes on one connection of the loop, which calls
    do_GET or do_POST once per framed GET or POST."""

    def do_POST(self) -> None:
        parts = urlsplit(self.path)
        if parts.path != "/api/locations":
            self._error(404, "no such resource", close=True)
            return
        try:
            body = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._error(400, "request body is not valid JSON", field="body")
            return
        try:
            record = self.server.service.insert_fix(body)
        except FixValidationError as exc:
            self._error(400, str(exc), field=exc.field)
            return
        except StorageError as exc:
            self._error(500, str(exc))
            return
        self._reply(201, record.as_dict())

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        device_id = (query.get("device_id") or [None])[0]
        history = parts.path == "/api/locations"
        if not history and parts.path != "/api/locations/latest":
            self._error(404, "no such resource")
            return
        if not device_id:
            self._error(400, "query parameter 'device_id' is required", field="device_id")
            return
        limit = digits((query.get("limit") or [str(DEFAULT_HISTORY_LIMIT)])[0])
        if history and not limit:  # None or 0
            self._error(400, "limit must be a positive integer", field="limit")
            return
        service = self.server.service
        try:
            found = service.history(device_id, limit) if history else service.latest_fix(device_id)
        except StorageError as exc:
            self._error(500, str(exc))
            return
        if not found:  # no entry, so the table holds stored devices only
            if history:
                self._reply(200, [])
            else:
                self._error(404, f"no fix recorded for device '{device_id}'")
            return
        # A query hands out records that are never mutated, so the same
        # objects in the same order encode to the same bytes; anything else
        # (an insert, even one that keeps the length and the last record) is
        # encoded afresh.
        records = found if history else (found,)
        replies = self.server.replies
        entry = replies.get((device_id, history))
        if (entry is None or len(entry[0]) != len(records)
                or not all(map(operator.is_, entry[0], records))):
            body = json.dumps([r.as_dict() for r in records] if history
                              else found.as_dict()).encode("utf-8")
            entry = replies[device_id, history] = (records, body)
        self._send(200, entry[1])


class _TrackHTTPServer(LoopServer):
    """The loop serving one TrackService.  `replies` maps (device_id,
    is_history) to the (records, body) of the last 200 reply with records."""

    def __init__(self, address: tuple[str, int], service: TrackService) -> None:
        super().__init__(address, TrackRequestHandler)
        self.service = service
        self.replies: dict[tuple[str, bool], tuple[Sequence[FixRecord], bytes]] = {}


def make_http_server(listen: str, service: TrackService) -> _TrackHTTPServer:
    """Bind an HTTP server exposing the service; the caller runs it."""
    host, _, port_text = listen.rpartition(":")
    port = digits(port_text)
    if not host or port is None:
        raise ValueError("listen address must be host:port, the port in ASCII digits")
    if port > 65535:
        raise ValueError("port must be at most 65535")
    return _TrackHTTPServer((host, port), service)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echoguide-server",
        description="Location-tracking HTTP service with JSON-lines persistence.",
    )
    parser.add_argument("--listen", default=DEFAULT_LISTEN,
                        help=f"host:port to bind (default {DEFAULT_LISTEN}; "
                             f"env {ENV_LISTEN} overrides)")
    parser.add_argument("--store", default=DEFAULT_STORE,
                        help=f"JSON-lines persistence path (default {DEFAULT_STORE}; "
                             f"env {ENV_STORE} overrides)")
    args = parser.parse_args(argv)

    # Environment wins over flags so supervisors can pin the deployment.
    listen = os.environ.get(ENV_LISTEN, args.listen)
    store_path = os.environ.get(ENV_STORE, args.store)

    # A startup error exits 2 with one line naming the setting at fault and
    # its value, then an OSError's errno text, as echoguide-tracker does.
    def setting(env: str, flag: str) -> str:
        return env if env in os.environ else flag

    def reason(exc: Exception) -> object:
        """An OSError's errno text, less the address socket.create_server adds to a bind's."""
        text = getattr(exc, "strerror", None)
        return text.partition(" (while attempting to bind")[0] if text else exc

    try:
        store = TrackStore(store_path)
    except (StorageError, OSError) as exc:  # corrupt (the error names the file), or unopenable
        value = "" if isinstance(exc, StorageError) else f" {store_path}"
        print(f"error: {setting(ENV_STORE, '--store')}{value}: {reason(exc)}", file=sys.stderr)
        return 2
    try:
        httpd = make_http_server(listen, TrackService(store))
    except (ValueError, OSError) as exc:  # a bad address, or one that cannot be bound
        store.close()
        print(f"error: {setting(ENV_LISTEN, '--listen')} {listen}: {reason(exc)}", file=sys.stderr)
        return 2
    host, port = httpd.server_address[:2]
    print(f"serving on http://{host}:{port} (store: {store_path})", flush=True)
    # SIGINT stops the server, even one a shell started in the background
    # with SIGINT ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
