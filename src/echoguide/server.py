"""Location-tracking service: validates posted fixes, persists them to an
append-only JSON-lines file, and answers latest/history queries.

The service core is transport-free so the simulation harness can call it
in-process; ``main()`` wraps the same core in a threaded HTTP server for
real clients.  Every accepted fix is written and fsynced before the caller
sees a response, so a restart answers queries identically.

The store indexes fixes by device, each device's list sorted by
(timestamp, id) on its first query and kept sorted after, so latest is
O(1) and history O(limit).  The HTTP handler answers a bad Content-Length
with 400, one over MAX_BODY_BYTES with 413 and a method other than GET or
POST with 405, without reading the body, and gives up on a connection that
stays silent for REQUEST_TIMEOUT_S, an idle kept-alive one among them.
Replies leave with TCP_NODELAY, headers and body in one send, so a client
that keeps its connection open waits for no delayed ACK.  A GET reply is
encoded once per change of its device's fixes and its bytes sent again until
a POST changes them, at most two stored replies (latest, history) per device.
"""

from __future__ import annotations

import argparse
import bisect
import json
import operator
import os
import re
import socket
import sys
import threading
from dataclasses import dataclass
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence
from urllib.parse import parse_qs, urlsplit

from .jsonread import FIX, parse_instant, read_json

DEFAULT_LISTEN = "127.0.0.1:8750"
DEFAULT_STORE = "locations.jsonl"
DEFAULT_HISTORY_LIMIT = 1000
MAX_BODY_BYTES = 64 * 1024
REQUEST_TIMEOUT_S = 10.0

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

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._records: list[FixRecord] = []
        self._by_device: dict[str, list[FixRecord]] = {}
        self._last_key: dict[str, tuple[datetime, int]] = {}  # of each sorted device
        self._size = 0  # bytes of whole lines in the file
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
            self._fh.close()

    def _truncate(self) -> None:
        """Cut the file back to its last whole line and make that durable."""
        os.ftruncate(self._fh.fileno(), self._size)
        os.fsync(self._fh.fileno())

    def insert(self, body: object) -> FixRecord:
        """validate_fix the body, then assign the next id, persist durably and
        expose the record.  A refused body writes nothing and takes no id."""
        fields = validate_fix(body)
        with self._lock:
            record = FixRecord(id=len(self._records) + 1, **fields)
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
# HTTP adapter.
# --------------------------------------------------------------------------


def _digits(text: str) -> Optional[int]:
    """The value of ASCII digits, at most sys.maxsize, or None for any other
    text, such as '+5', '1_0', ' 5' or other scripts' digits, which int() takes."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0")
    return int(digits or "0") if len(digits) < 19 else sys.maxsize


class TrackRequestHandler(BaseHTTPRequestHandler):
    service: TrackService  # injected by make_http_server
    # Per server, also injected: (device_id, is_history) -> (records, body) of
    # the last 200 reply with records.  Each entry is replaced whole, never
    # changed, so racing handlers each store a consistent pair without a lock.
    replies: dict[tuple[str, bool], tuple[Sequence[FixRecord], bytes]]
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S  # a silent connection or a short body frees its thread
    # A reply that fits wbufsize leaves in one send, at handle_one_request's
    # flush.  TCP_NODELAY keeps one that takes more sends from waiting for
    # the client's delayed ACK (tens of ms) on a kept-alive connection.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    # -- plumbing -----------------------------------------------------------

    def log_message(self, fmt: str, *args: object) -> None:
        pass  # keep stdio clean; errors surface through status codes

    def handle_expect_100(self) -> bool:
        """Send "100 Continue" now: the client holds the body back until it arrives."""
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _reply(self, status: int, payload: object, close: bool = False) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), close)

    def _send(self, status: int, body: bytes, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status == 405:
            self.send_header("Allow", "GET, POST")
        # Say so whenever the connection ends after this reply: `close`, the
        # request (HTTP/1.0, Connection: close) or the route may end it.
        if close or self.close_connection:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _error(self, status: int, message: str, field: Optional[str] = None,
               close: bool = False) -> None:
        payload: dict = {"error": message}
        if field is not None:
            payload["field"] = field
        self._reply(status, payload, close)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer what the framework refuses (a bad request line, an unknown
        method, a URI or headers too long) as JSON, like every other error."""
        if self.request_version == "HTTP/0.9":  # the line never parsed as HTTP/1.x:
            self.request_version = ""  # still send a status line and headers
        self._error(code, message or self.responses[code][0], close=True)

    def _body_length(self) -> Optional[int]:
        """The request's Content-Length, or None once an error is sent.

        Transfer-Encoding overrides Content-Length (RFC 9112 section 6.3) and
        is not supported, so it is refused.  A body that is not read leaves
        the connection out of step, so every error closes it.
        """
        if "Transfer-Encoding" in self.headers:
            self._error(400, "Transfer-Encoding is not supported; send Content-Length",
                        field="Transfer-Encoding", close=True)
            return None
        values = self.headers.get_all("Content-Length") or []
        length = _digits(values[0].strip()) if len(set(values)) == 1 else None
        if length is None:
            self._error(400, "Content-Length must be one non-negative integer",
                        field="Content-Length", close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes",
                        field="Content-Length", close=True)
            return None
        return length

    # -- routes ---------------------------------------------------------------

    def _not_allowed(self) -> None:
        """Any method but GET and POST; a body it carries stays unread."""
        self._error(405, f"method {self.command} is not allowed", close=True)

    do_PUT = do_DELETE = do_PATCH = do_HEAD = do_OPTIONS = do_TRACE = do_CONNECT = _not_allowed

    def do_POST(self) -> None:
        parts = urlsplit(self.path)
        if parts.path != "/api/locations":
            self._error(404, "no such resource", close=True)  # the body stays unread
            return
        length = self._body_length()
        if length is None:
            return
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self._error(408, f"request body did not arrive within {self.timeout} s",
                        field="body", close=True)
            return
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._error(400, "request body is not valid JSON", field="body")
            return
        try:
            record = self.service.insert_fix(body)
        except FixValidationError as exc:
            self._error(400, str(exc), field=exc.field)
            return
        except StorageError as exc:
            self._error(500, str(exc))
            return
        self._reply(201, record.as_dict())

    def do_GET(self) -> None:
        # A body left unread would be parsed as the next request, so a GET
        # that declares one is answered and its connection closed.
        if "Transfer-Encoding" in self.headers or any(
                value.strip() != "0" for value in self.headers.get_all("Content-Length", ())):
            self.close_connection = True
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
        limit = _digits((query.get("limit") or [str(DEFAULT_HISTORY_LIMIT)])[0])
        if history and not limit:  # None or 0
            self._error(400, "limit must be a positive integer", field="limit")
            return
        try:
            found = (self.service.history(device_id, limit) if history
                     else self.service.latest_fix(device_id))
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
        entry = self.replies.get((device_id, history))
        if (entry is None or len(entry[0]) != len(records)
                or not all(map(operator.is_, entry[0], records))):
            body = json.dumps([r.as_dict() for r in records] if history
                              else found.as_dict()).encode("utf-8")
            entry = self.replies[device_id, history] = (records, body)
        self._send(200, entry[1])


class _TrackHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer whose server_close() also ends the connections it
    still serves and waits for their handlers to return, so no kept-alive
    client is answered by a stopped server."""

    daemon_threads = False  # so that ThreadingMixIn.server_close() joins them

    def __init__(self, *args, **kwargs) -> None:
        self._open: set[socket.socket] = set()  # connections being served
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """Say nothing of a client that reset or dropped its connection;
        report any other failure as socketserver does."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        with self._open_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # its handler reads EOF and returns
                except OSError:  # the peer is gone already
                    pass
        super().server_close()


def make_http_server(listen: str, service: TrackService) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server exposing the service; caller runs it."""
    host, _, port_text = listen.rpartition(":")
    port = _digits(port_text)
    if not host or port is None:
        raise ValueError("listen address must be host:port, the port in ASCII digits")
    if port > 65535:
        raise ValueError("port must be at most 65535")
    handler = type("BoundHandler", (TrackRequestHandler,), {"service": service, "replies": {}})
    return _TrackHTTPServer((host, port), handler)


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

    # A startup error exits 2 with one line naming the setting at fault, as
    # echoguide-sim and echoguide-tracker do.
    def setting(env: str, flag: str) -> str:
        return env if env in os.environ else flag

    try:
        store = TrackStore(store_path)
    except (StorageError, OSError) as exc:  # a corrupt store, or a path it cannot open
        print(f"error: {setting(ENV_STORE, '--store')}: {exc}", file=sys.stderr)
        return 2
    try:
        httpd = make_http_server(listen, TrackService(store))
    except (ValueError, OSError) as exc:  # a bad address, or one that cannot be bound
        store.close()
        print(f"error: {setting(ENV_LISTEN, '--listen')} {listen}: {exc}", file=sys.stderr)
        return 2
    host, port = httpd.server_address[:2]
    print(f"serving on http://{host}:{port} (store: {store_path})", flush=True)
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
