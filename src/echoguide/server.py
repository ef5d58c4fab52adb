"""Location-tracking service: validates posted fixes, persists them to an
append-only JSON-lines file, and answers latest/history queries.

The store is transport-free so the simulation harness can call it
in-process; ``main()`` serves the same store over HTTP for real clients,
from httploop's one selectors loop on one thread.  With a store path, as
the server always has, every accepted fix is written and fsynced before
the caller sees a response, so a restart answers queries identically.

The store keeps each device's fixes in columns (ids, coordinates,
timestamp text, provider codes), sorted by (timestamp, id) on the
device's first query and kept sorted after, so latest is O(1) and history
O(limit); a fix in the columns becomes an object only when a query
returns it.  The routes only answer: httploop frames each request,
answers every other method and holds the limits.  A GET reply is encoded
once per insert into its device and its bytes sent again, with no query,
until the next one: at most two stored replies (latest, history) per
device.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import signal
import sys
import threading
from array import array
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .httploop import Connection, LoopServer, digits
from .jsonread import FIX, RECORD, parse_instant, read_json

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
    """A stored fix.  Never mutated once made.  The store holds most fixes
    in columns and makes their records only to return them, so the HTTP
    adapter's reply reuse goes by the device's fix count, not by record
    identity."""

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


# The one timestamp form the columns hold: 20 ASCII bytes, which
# parse_instant reads whenever the date exists, and whose byte order is
# time order.
_STAMP_TEXT = r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]Z"
_STAMP = re.compile(_STAMP_TEXT).fullmatch
_STAMP_BYTES = 20
_PLACEHOLDER = b"0001-01-01T00:00:00Z"  # the stamp of a row whose record is in the side table
_PROVIDERS = ("gps", "network")  # a row's provider code indexes this
_PROVIDER_CODES = {name.encode(): code for code, name in enumerate(_PROVIDERS)}

# A line as TrackStore.insert writes it: json.dumps(..., sort_keys=True).  Its
# strings are printable ASCII other than a quote or a backslash (json.dumps
# escapes the rest) and its coordinates carry a fraction or an exponent, so
# int(), float() and decode() read the groups as json.loads reads the line.
_STR = rb'"([ !#-\[\]-~]*)"'
_FLOAT = rb"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"


def _line(provider: bytes, timestamp: bytes):
    return re.compile(
        rb'\{"device_id": ' + _STR + rb', "id": ([1-9][0-9]*), "latitude": ' + _FLOAT
        + rb', "longitude": ' + _FLOAT + rb', "provider": ' + provider + rb', "timestamp": '
        + timestamp + rb"\}\n").fullmatch


# Such a line for a fix the columns hold, and for any fix.
_COLUMN_LINE = _line(rb'"(gps|network)"', b'"(' + _STAMP_TEXT.encode() + b')"')
_CANONICAL_LINE = _line(_STR, _STR)


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


def _instant_key(timestamp: str) -> bytes:
    """A key that orders timestamps as their parse_instant does: the text
    itself in the columns' form, else its instant's text in that form and,
    if not 0, its microseconds in 3 big-endian bytes.  Every key starts with
    _STAMP_BYTES of text, so a whole second sorts before its fractions."""
    if _STAMP(timestamp):
        return timestamp.encode()
    instant = parse_instant(timestamp)
    key = (instant.isoformat()[:19] + "Z").encode()
    return key + instant.microsecond.to_bytes(3, "big") if instant.microsecond else key


class _Columns:
    """One device's fixes, a row each: ids, coordinates, timestamps of
    _STAMP_BYTES and provider codes.  A row whose device id, timestamp or
    provider the columns cannot hold exactly keeps its record in `odd`,
    under its id, beside a placeholder stamp and code.  Rows run in id
    order until the device's first query sorts them; `last` is then the
    sort key of the last row, and None before."""

    __slots__ = ("device", "ids", "lats", "lons", "stamps", "providers", "odd", "last")

    def __init__(self, device) -> None:
        self.device = device
        self.ids = array("q")
        self.lats = array("d")
        self.lons = array("d")
        self.stamps = bytearray()
        self.providers = bytearray()
        self.odd: dict[int, FixRecord] = {}
        self.last: Optional[bytes] = None

    def put(self, row: int, record: FixRecord) -> None:
        """Make record the row at `row`, len(self.ids) to append it."""
        timestamp = record.timestamp
        exact = (type(record.device_id) is str and type(timestamp) is str and _STAMP(timestamp)
                 and record.provider in _PROVIDERS)
        self.ids.insert(row, record.id)
        self.lats.insert(row, record.latitude)
        self.lons.insert(row, record.longitude)
        start = row * _STAMP_BYTES
        self.stamps[start:start] = timestamp.encode() if exact else _PLACEHOLDER
        self.providers.insert(row, _PROVIDERS.index(record.provider) if exact else 0)
        if not exact:
            self.odd[record.id] = record

    def key(self, row: int) -> bytes:
        """The row's _instant_key, for a row known valid: its stamp bytes
        unless its record is in the side table."""
        if self.odd:
            record = self.odd.get(self.ids[row])
            if record is not None:
                return _instant_key(record.timestamp)
        start = row * _STAMP_BYTES
        return bytes(self.stamps[start:start + _STAMP_BYTES])

    def records(self, start: int, stop: Optional[int] = None) -> list[FixRecord]:
        """The record of each row from start to stop."""
        device, odd = self.device, self.odd
        text = self.stamps[start * _STAMP_BYTES:None if stop is None else stop * _STAMP_BYTES]
        text = text.decode("ascii")
        return [FixRecord(id_, device, lat, lon, text[at:at + _STAMP_BYTES], _PROVIDERS[code])
                if id_ not in odd else odd[id_]
                for at, id_, lat, lon, code in zip(
                    range(0, len(text), _STAMP_BYTES), self.ids[start:stop],
                    self.lats[start:stop], self.lons[start:stop], self.providers[start:stop])]

    def record(self, row: int) -> FixRecord:
        return self.records(row, row + 1)[0]

    def in_range(self) -> bool:
        """Whether every row's coordinates are in range and every stamp's
        date exists.  Each other field of a row the columns hold exactly is
        valid by its form, but for the device id."""
        if not (all(-90.0 <= x <= 90.0 for x in self.lats)
                and all(-180.0 <= x <= 180.0 for x in self.lons)):
            return False
        stamps = bytes(self.stamps)
        dates = {stamps[at:at + 10]: at for at in range(0, len(stamps), _STAMP_BYTES)}
        try:
            for at in dates.values():  # each of a date's times is in the form, so valid
                parse_instant(stamps[at:at + _STAMP_BYTES].decode("ascii"))
        except ValueError:
            return False
        return True

    def reorder(self, order: list[int]) -> None:
        """Put the rows in `order`, a permutation of their indices, one
        column at a time and with no list of values, so the peak is the
        columns, `order` and one column's copy."""
        self.ids = array("q", map(self.ids.__getitem__, order))
        self.lats = array("d", map(self.lats.__getitem__, order))
        self.lons = array("d", map(self.lons.__getitem__, order))
        self.providers = bytearray(map(self.providers.__getitem__, order))
        stamps, view = bytearray(), memoryview(self.stamps)
        for row in order:
            start = row * _STAMP_BYTES
            stamps += view[start:start + _STAMP_BYTES]
        view.release()
        self.stamps = stamps


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
    back out of the file, and the columns never see it.  A store with no
    path has no file and does no I/O; it validates, numbers, keeps and
    answers fixes as one with a path does.

    The store keeps each device's fixes in columns (see _Columns): about
    46 bytes a fix, where a record object and its fields take about 240.
    A device's rows start in id order and are sorted by (timestamp, id) on
    the device's first query, so loading parses no timestamps; from then
    on each insert keeps them sorted, comparing its key with the last
    row's, which the store keeps.  That first sort checks each of the
    device's fixes as jsonread.RECORD does, from the columns, and a fix it
    refuses, such as one whose timestamp does not parse, makes the sort
    raise StorageError naming the first such fix by id and the field.

    The load reads a line as insert() writes it with one regular-expression
    match (of the columns' form, or else of any fix), and any other line
    through json.loads; both give the same fix.
    Ids must be JSON integers that run 1..n, and coordinates JSON numbers
    (not strings or booleans, as validate_fix requires).  A last line with
    no newline is a torn append that was never acknowledged: it is truncated
    away with a warning on stderr.  Any other bad line raises StorageError
    naming path:lineno.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._by_device: dict[str, _Columns] = {}
        self._count = 0  # fixes stored: the last id
        self._size = 0  # bytes of whole lines in the file
        self._fh = None
        if path is None:
            return
        by_device = self._by_device
        torn_bytes = 0
        names = _Names()
        codes = _PROVIDER_CODES
        count = 0
        if os.path.exists(path):
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.endswith(b"\n"):  # only the last line can lack one
                        torn_bytes = len(line)
                        break
                    if line.isspace():
                        continue
                    match = _COLUMN_LINE(line)
                    try:
                        if match:  # the common case, read straight into the columns
                            device, id_text, lat, lon, provider, stamp = match.groups()
                            record_id, record = int(id_text), None
                        else:
                            record = _read_line(line, names)
                            record_id = record.id
                            hash(record.device_id)  # TypeError if unhashable
                    except (ValueError, KeyError, TypeError, OverflowError) as exc:
                        raise StorageError(f"{path}:{lineno}: corrupt record ({exc})") from None
                    if record_id != count + 1:
                        raise StorageError(f"{path}:{lineno}: expected id {count + 1}, "
                                           f"found {record_id}")
                    count = record_id
                    key = names[device] if record is None else record.device_id
                    columns = by_device.get(key)
                    if columns is None:
                        columns = by_device[key] = _Columns(key)
                    if record is not None:
                        columns.put(len(columns.ids), record)
                        continue
                    columns.ids.append(record_id)
                    columns.lats.append(float(lat))
                    columns.lons.append(float(lon))
                    columns.stamps += stamp
                    columns.providers.append(codes[provider])
                self._size = fh.tell() - torn_bytes
        self._count = count
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
            record = FixRecord(id=self._count + 1, **fields)
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
            self._count = record.id
            columns = self._by_device.get(record.device_id)
            if columns is None:
                columns = self._by_device[record.device_id] = _Columns(record.device_id)
            row = len(columns.ids)
            if columns.last is not None:
                key = self._sort_key(record)
                if key < columns.last:
                    row = bisect.bisect(range(row), key, key=columns.key)
                else:
                    columns.last = key
            columns.put(row, record)
            return record

    def records(self) -> list[FixRecord]:
        """Every fix as a record, in id order, rebuilt from the columns.
        Nothing in the program or its tests calls it: it stays only because
        perfbench/tracing.py wraps it by name and perfbench/http_load.py's
        after-run check reads it, in the benchmark's own process."""
        with self._lock:
            records = [record for columns in self._by_device.values()
                       for record in columns.records(0)]
        records.sort(key=lambda record: record.id)
        return records

    def version(self, device_id: str) -> int:
        """The device's fix count.  Every insert into the device bumps it and
        nothing else changes the device's answers, so a reply kept with the
        count it was made at is current while the count is."""
        columns = self._by_device.get(device_id)
        return 0 if columns is None else len(columns.ids)

    def recent(self, device_id: str, limit: int) -> list[FixRecord]:
        """A device's last `limit` fixes by (timestamp, id), oldest first,
        each made from the columns."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._lock:
            columns = self._by_device.get(device_id)
            if columns is None:
                return []
            if columns.last is None:
                self._sort(columns)
            return columns.records(max(0, len(columns.ids) - limit))

    def _sort_key(self, record: FixRecord) -> bytes:
        """The sort key of a record known valid: insert ran validate_fix on
        it, or the device's first sort checked it.  Ties go by id."""
        return _instant_key(record.timestamp)

    def _check(self, record: FixRecord) -> None:
        """Raise StorageError naming the record and the field if
        jsonread.RECORD refuses the record."""
        fields = record.as_dict()
        try:
            read_json(fields, RECORD, ValueError, "record")
        except ValueError as exc:
            name = exc.field  # type: ignore[attr-defined]
            raise StorageError(f"{self.path}: record {record.id}: {name} "
                               f"{fields[name]!r} is invalid ({exc})") from None

    def _sort(self, columns: _Columns) -> None:
        """Check each of a device's fixes, in id order, then sort its rows by
        (timestamp, id), stably, so equal instants stay in id order.  All or
        nothing: a raise leaves the rows as they were."""
        try:
            # Row 0 holds the device id every exact row shares; the rest of
            # an exact row is checked by in_range, or valid by its form.
            for record in (columns.record(0), *columns.odd.values()):
                self._check(record)
            valid = columns.in_range()
        except StorageError:
            valid = False
        if not valid:
            for row in range(len(columns.ids)):
                self._check(columns.record(row))
        order = sorted(range(len(columns.ids)), key=columns.key)
        columns.reorder(order)
        columns.last = columns.key(len(order) - 1)


def _read_line(line: bytes, names: _Names) -> FixRecord:
    """The record of a store line that is not a column line: one insert
    wrote, with one regular-expression match, or any other, through json.loads."""
    match = _CANONICAL_LINE(line)
    if match:
        device, id_text, lat, lon, provider, timestamp = match.groups()
        return FixRecord(int(id_text), names[device], float(lat), float(lon),
                         timestamp.decode(), names[provider])
    doc = json.loads(line.decode("utf-8"))
    return FixRecord(
        id=_json_field(doc, "id", "integer"),
        device_id=doc["device_id"],
        latitude=float(_json_field(doc, "latitude", "number")),
        longitude=float(_json_field(doc, "longitude", "number")),
        timestamp=doc["timestamp"],
        provider=doc["provider"],
    )


class TrackService:
    """The API core the HTTP server answers from: pass-throughs to the
    store, kept because perfbench/tracing.py wraps them by name."""

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
        if not history:
            limit = 1
        service = self.server.service
        # Only an insert changes a device's answers, and it bumps the
        # device's version, so a reply kept at the same version and limit is
        # sent again with no query.  The version is read before the query:
        # an insert between the two leaves a reply that is encoded again.
        version = service.store.version(device_id)
        replies = self.server.replies
        entry = replies.get((device_id, history))
        if entry is not None and entry[0] == (version, limit):
            self._send(200, entry[1])
            return
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
        body = json.dumps([r.as_dict() for r in found] if history
                          else found.as_dict()).encode("utf-8")
        replies[device_id, history] = ((version, limit), body)
        self._send(200, body)


class _TrackHTTPServer(LoopServer):
    """The loop serving one TrackService.  `replies` maps (device_id,
    is_history) to the ((version, limit), body) of the last 200 reply with
    fixes, version being the store's version of the device."""

    def __init__(self, address: tuple[str, int], service: TrackService) -> None:
        super().__init__(address, TrackRequestHandler)
        self.service = service
        self.replies: dict[tuple[str, bool], tuple[tuple[int, int], bytes]] = {}


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
