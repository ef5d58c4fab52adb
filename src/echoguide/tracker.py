"""Guardian-side tracker CLI: query the tracking server for a device's
latest fix or trail and emit map-ready output.

Subcommands: get-location (print the newest fix), show-map (GeoJSON Point
plus a maps URL), track (GeoJSON trail).  Exit codes: 0 success, 2 server
unreachable or its reply malformed (or an --out file that cannot be
written), 3 no fix recorded for the device.

A 200 reply is checked before it is used: every fix must have the fields
of a stored fix and belong to the device asked for, and a trail may hold
no more fixes than its limit; a reply that fails names the field at
fault.  Reading is a function of the reply's bytes, the device and the
limit alone, so its result is kept for the _MEMO_CAP most recently read
replies of at most _MEMO_BODY_MAX bytes (16 KiB, about 110 fixes): about
14 MB at worst with their decoded fixes.  A reply that repeats one of them
is not decoded or checked again; each caller gets its own copy of the kept
result.  This pays only in a process that fetches again and again, as a
guardian's polling loop does: the CLI fetches once and exits.

Queries go over HTTP/1.1 persistent connections, spoken here over plain
sockets rather than http.client: each GET goes out in one write, with the
Host field as http.client writes it.  A reply is read as HTTP/1.0 or 1.1 by
the rules the server reads requests by, imported from httploop: 1xx interim
replies are skipped, and the body is framed by chunked transfer coding, by
Content-Length (a list of one value, such as '5, 5') or by the connection
closing.  A reply that cannot be read is refused as the server being
unreachable (exit 2): a bad status line, a head over 65,536 bytes or of 100
header lines or more, a bad header line or chunk size, a short body or a bad
Content-Length.  A connection goes back to an idle list for the next query
to the same server, from any thread, only after a whole reply that leaves
it open.  An https:// server is reached over TLS with the ssl module's
default context: its certificate must chain to a trusted CA (the system's,
or SSL_CERT_FILE's) and name the host.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import math
import re
import select
import socket
import sys
import threading
from typing import Optional
from urllib.parse import quote_plus, urlsplit

from .httploop import MAX_HEAD_BYTES, MAX_HEADER_LINES, add_field, closes, content_length, digits
from .jsonread import RECORD, list_rule, read_json

DEFAULT_SERVER = "127.0.0.1:8750"
DEFAULT_TRACK_LIMIT = 100

EXIT_OK = 0
EXIT_UNREACHABLE = 2
EXIT_NO_FIX = 3


class ServerUnreachable(RuntimeError):
    pass


class NoFix(RuntimeError):
    pass


class BadReply(ValueError):
    """A 200 reply that is not a fix or a trail of fixes; the message names
    the field at fault."""


_REPLY_TRAIL = list_rule(RECORD)


@functools.lru_cache(maxsize=16)
def _server(server: str) -> tuple[str, str, int, str, str]:
    """What a --server string names, read once per string: the scheme, the
    host (lower-cased, an IPv6 literal without its brackets), the port (by
    default the scheme's), the path the API's paths follow, and the GET's
    Host field as http.client writes it (the host IDNA-encoded, an IPv6
    literal in brackets, the scheme's default port left out).  No scheme
    means http://.  A scheme other than http or https, a string with no
    host or one IDNA cannot encode, a port that is not ASCII digits or is
    over 65535, a path with a space or control character, or a query or
    fragment (which would swallow the API's path) raises ServerUnreachable,
    in the same words on every Python version."""
    scheme = _SCHEME(server)
    if scheme and scheme[1].lower() not in ("http", "https"):
        raise ServerUnreachable(f"scheme must be http or https, not {scheme[1]!r}")
    url = server if scheme else "http://" + server
    if "?" in url or "#" in url:
        raise ServerUnreachable(f"a server URL takes no query or fragment: {server!r}")
    parts = urlsplit(url)
    host_port = parts.netloc.rpartition("@")[2]
    port_text = host_port.rpartition("]")[2].partition(":")[2]
    port = digits(port_text)
    if port_text and port is None:
        raise ServerUnreachable(f"Port is not a number: {port_text!r}")
    if port_text and port > 65535:
        raise ServerUnreachable(f"Port out of range 0-65535: {port_text!r}")
    host, path = parts.hostname, parts.path.rstrip("/")
    if not host:
        raise ServerUnreachable("no host given")
    if not (path.isascii() and path.isprintable() and " " not in path):
        raise ServerUnreachable(f"URL can't contain control characters: {path!r}")
    try:
        field = host if host.isascii() else host.encode("idna").decode("ascii")
    except UnicodeError:
        raise ServerUnreachable(f"bad host name {host!r}") from None
    if ":" in host:
        field = f"[{field}]"
    default = 443 if parts.scheme == "https" else 80
    if port is None:
        port = default
    elif port != default:
        field = f"{field}:{port}"
    return parts.scheme, host, port, path, field


_SCHEME = re.compile(r"([A-Za-z][A-Za-z0-9+.-]*)://").match  # RFC 3986 section 3.1


def _server_text(text: str) -> str:
    """--server: a string _server reads, refused in its words when it cannot."""
    try:
        _server(text)
    except ServerUnreachable as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# Idle kept-alive connections by (scheme, host, port), most recently used last.
_idle: dict[tuple[str, str, int], list[socket.socket]] = {}
_idle_lock = threading.Lock()

# How a connection that sat idle fails once the server has closed it: the GET
# is sent (or refused) and the connection ends before any byte of a reply.
_STALE = (ConnectionResetError, BrokenPipeError)
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class _Reply:
    """One reply to a GET, read off its socket through one buffer: the
    status line and header fields (1xx interim replies skipped), then a
    body framed by chunked, by Content-Length or by the connection closing
    (RFC 9112 sections 4 to 7).  A reply it cannot read raises
    ServerUnreachable; a connection that ends before any byte of a reply
    raises ConnectionResetError, as a stale one does."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock, self.buf, self.pos = sock, bytearray(), 0

    def read(self, request: bytes) -> None:
        """Send the request in one write and read its reply."""
        self.sock.sendall(request)
        code = "1"
        while code[0] == "1":  # 1xx: an interim reply, the final one follows
            end_by, too_long = self.pos + MAX_HEAD_BYTES, f"reply head over {MAX_HEAD_BYTES} bytes"
            line = self._line(end_by, too_long)
            version, _, rest = line.partition(" ")
            code, _, reason = rest.partition(" ")
            if not (len(version) == 8 and version.startswith("HTTP/1.") and
                    version[7] in "0123456789" and len(code) == 3 and
                    code.isascii() and code.isdigit() and code[0] != "0"):
                raise ServerUnreachable(f"bad status line {line!r}")
            self.fields: dict[str, list[str]] = {}
            for _ in range(MAX_HEADER_LINES):  # the blank line that ends the head is one
                if not (line := self._line(end_by, too_long)):
                    break
                if not add_field(self.fields, line):
                    raise ServerUnreachable(f"bad header line {line!r}")
            else:
                raise ServerUnreachable(f"reply head over {MAX_HEADER_LINES} header lines")
        self.status, self.reason = int(code), reason.strip()
        self.close = closes(self.fields, version == "HTTP/1.0")
        self.body = self._body()
        self.close = self.close or self.pos != len(self.buf)  # bytes past the reply

    def _recv(self) -> None:
        """Read what has arrived into buf; the connection must not have ended."""
        data = self.sock.recv(65536)
        if not data:
            if not self.buf:
                raise ConnectionResetError("the server closed the connection with no reply")
            raise ServerUnreachable("the server closed the connection mid-reply")
        self.buf += data

    def _line(self, end_by: int, too_long: str) -> str:
        """The next line of a head or a chunked body, without its line end,
        which must come before buf index end_by."""
        while (end := self.buf.find(b"\n", self.pos, end_by)) < 0:
            if len(self.buf) >= end_by:
                raise ServerUnreachable(too_long)
            self._recv()
        line, self.pos = self.buf[self.pos:end].decode("latin-1").rstrip("\r"), end + 1
        return line

    def _body(self) -> bytes:
        if self.status in (204, 304):
            return b""
        codings = self.fields.get("transfer-encoding")
        if codings:
            if ",".join(codings).rsplit(",", 1)[-1].strip().lower() == "chunked":
                return self._chunked()
        elif "content-length" in self.fields:
            length = content_length(self.fields["content-length"])
            if length is None or length == sys.maxsize:  # digits() caps 19 digits or more
                raise ServerUnreachable(
                    f"bad Content-Length {', '.join(self.fields['content-length'])!r}")
            return self._take(length)
        self.close = True  # RFC 9112 section 6.3: the body ends when the connection does
        while data := self.sock.recv(65536):
            self.buf += data
        body, self.pos = bytes(self.buf[self.pos:]), len(self.buf)
        return body

    def _take(self, length: int) -> bytes:
        end = self.pos + length
        while len(self.buf) < end:
            data = self.sock.recv(65536)
            if not data:
                raise ServerUnreachable(
                    f"short body: {len(self.buf) - self.pos} of {length} bytes")
            self.buf += data
        body, self.pos = bytes(self.buf[self.pos:end]), end
        return body

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line(self.pos + MAX_HEAD_BYTES,
                              f"chunk size line over {MAX_HEAD_BYTES} bytes")
            size = line.partition(";")[0].strip(" \t")  # chunk extensions are ignored
            if not (0 < len(size) <= 16 and _HEX_DIGITS.issuperset(size)):
                raise ServerUnreachable(f"bad chunk size line {line!r}")
            if not size.strip("0"):
                break
            chunks.append(self._take(int(size, 16)))
            if self._line(self.pos + 2, "chunk data longer than its size"):
                raise ServerUnreachable("chunk data longer than its size")
        end_by = self.pos + MAX_HEAD_BYTES
        while self._line(end_by, f"trailer section over {MAX_HEAD_BYTES} bytes"):
            pass  # trailer fields are read, not used
        return b"".join(chunks)


def _connect(host: str, port: int, https: bool, timeout: float) -> socket.socket:
    sock = socket.create_connection((host, port), timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as http.client does
        if not https:
            return sock
        import ssl  # only for an https:// URL: loading it costs every run start-up time
        return ssl.create_default_context().wrap_socket(sock, server_hostname=host)
    except BaseException:
        sock.close()
        raise


def _get_reply(server: str, target: str, timeout: float) -> tuple[int, str, bytes]:
    """Status, reason phrase and body of a GET of `target` below the path
    of `server` (see _server), over an idle connection to the same server
    when there is one.

    A readable idle connection is closed unused.  An idle one that ends
    before any byte of a reply (the server may have closed it while idle)
    is tried again once, on a new connection.  A connection goes back to
    the idle list only after a whole reply that leaves it open.
    """
    scheme, host, port, path, host_field = _server(server)
    key = (scheme, host, port)
    https = scheme == "https"
    request = (f"GET {path}{target} HTTP/1.1\r\nHost: {host_field}\r\n"
               "Accept-Encoding: identity\r\n\r\n").encode("ascii")
    with _idle_lock:
        idle = _idle.get(key)
        sock = idle.pop() if idle else None
    if sock is not None and select.select([sock], [], [], 0)[0]:
        sock.close()  # bytes or an EOF that came while it sat idle answer no request of ours
        sock = None
    try:
        if sock is not None:
            sock.settimeout(timeout)
            reply = _Reply(sock)
            try:
                reply.read(request)
            except _STALE:
                if reply.buf:  # part of a reply came: the connection was not stale
                    raise
                sock.close()
                sock = None
        if sock is None:
            sock = _connect(host, port, https, timeout)
            reply = _Reply(sock)
            reply.read(request)
    except ServerUnreachable:
        sock.close()
        raise
    except OSError as exc:  # refused, reset, timed out, or TLS refused
        if sock is not None:
            sock.close()
        raise ServerUnreachable(str(exc) or type(exc).__name__) from None
    if reply.close:
        sock.close()
    else:
        with _idle_lock:
            _idle.setdefault(key, []).append(sock)
    return reply.status, reply.reason, reply.body


def _unexpected(status: int, reason: str, body: bytes) -> ServerUnreachable:
    """The error for a reply whose status the query does not expect: its
    JSON body, or its reason phrase when the body is not JSON."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is one too
        payload = {"error": reason}
    return ServerUnreachable(f"unexpected response {status}: {payload}")


def _close_idle() -> None:
    """Close every idle connection, for a process that is about to end."""
    with _idle_lock:
        conns = [conn for idle in _idle.values() for conn in idle]
        _idle.clear()
    for conn in conns:
        conn.close()


atexit.register(_close_idle)  # for callers of fetch_latest/fetch_history other than main()


_MEMO_CAP = 256
_MEMO_BODY_MAX = 16 * 1024


@functools.lru_cache(maxsize=_MEMO_CAP)
def _check(body: bytes, device_id: str, limit: Optional[int]) -> dict | list[dict]:
    """The fix (limit None) or the trail of at most `limit` fixes in a 200
    reply body, every fix `device_id`'s; anything else raises BadReply.
    The result is kept and shared: callers copy it before handing it out."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise BadReply(f"reply: not valid JSON ({exc})") from None
    if limit is None:
        fix = read_json(doc, RECORD, BadReply, "reply")
        if fix["device_id"] != device_id:
            raise BadReply(f"device_id: must be {device_id!r}, the device asked for")
        return fix
    trail = read_json(doc, _REPLY_TRAIL, BadReply, "reply")
    if len(trail) > limit:
        raise BadReply(f"reply: {len(trail)} fixes, more than the limit of {limit}")
    for i, fix in enumerate(trail):
        if fix["device_id"] != device_id:
            raise BadReply(f"[{i}].device_id: must be {device_id!r}, the device asked for")
    return trail


def _read(body: bytes, device_id: str, limit: Optional[int]) -> dict | list[dict]:
    """_check's result, kept only for a body of at most _MEMO_BODY_MAX bytes."""
    check = _check if len(body) <= _MEMO_BODY_MAX else _check.__wrapped__
    return check(body, device_id, limit)


def fetch_latest(server: str, device_id: str, timeout: float = 5.0) -> dict:
    """Latest fix for a device; raises NoFix (404), ServerUnreachable or BadReply."""
    target = f"/api/locations/latest?device_id={quote_plus(device_id)}"
    status, reason, body = _get_reply(server, target, timeout)
    if status == 404:
        raise NoFix(device_id)
    if status != 200:
        raise _unexpected(status, reason, body)
    return dict(_read(body, device_id, None))


def fetch_history(server: str, device_id: str, limit: int, timeout: float = 5.0) -> list[dict]:
    """Fix trail for a device, ascending by time; may be empty."""
    target = f"/api/locations?device_id={quote_plus(device_id)}&limit={limit}"
    status, reason, body = _get_reply(server, target, timeout)
    if status != 200:
        raise _unexpected(status, reason, body)
    return list(map(dict, _read(body, device_id, limit)))


def format_coord(value: float) -> str:
    """Coordinate text with at most six decimal places, trailing zeros trimmed."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def fix_line(fix: dict) -> str:
    """The fixed one-line rendering used by get-location."""
    return (
        f"{fix['device_id']} {fix['latitude']:.6f} {fix['longitude']:.6f} "
        f"{fix['timestamp']} {fix['provider']}"
    )


def map_url(fix: dict) -> str:
    return (
        "https://www.google.com/maps?q="
        f"{format_coord(fix['latitude'])},{format_coord(fix['longitude'])}"
    )


def point_feature(fix: dict) -> dict:
    """GeoJSON Point Feature for one fix (coordinates are [lon, lat])."""
    return {
        "type": "Feature",
        "geometry": {
            "type": "Point",
            "coordinates": [round(fix["longitude"], 6), round(fix["latitude"], 6)],
        },
        "properties": {
            "device_id": fix["device_id"],
            "timestamp": fix["timestamp"],
            "provider": fix["provider"],
        },
    }


def show_map(fix: dict) -> tuple[dict, str]:
    """Map-ready rendering of a fix: (GeoJSON Point Feature, maps URL)."""
    return point_feature(fix), map_url(fix)


def track_feature(fixes: list[dict]) -> dict:
    """GeoJSON Feature for a trail: LineString, or Point for a single fix."""
    if not fixes:
        raise ValueError("cannot build a feature from zero fixes")
    if len(fixes) == 1:
        return point_feature(fixes[0])
    return {
        "type": "Feature",
        "geometry": {
            "type": "LineString",
            "coordinates": [
                [round(f["longitude"], 6), round(f["latitude"], 6)] for f in fixes
            ],
        },
        "properties": {
            "device_id": fixes[0]["device_id"],
            "count": len(fixes),
            "start_timestamp": fixes[0]["timestamp"],
            "end_timestamp": fixes[-1]["timestamp"],
        },
    }


class _Unwritable(RuntimeError):
    """The --out file cannot be written; the message names it and why."""


def _write_geojson(doc: dict, out_path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path is None or out_path == "-":
        print(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:  # a missing directory, a directory, no permission, a full disk
        raise _Unwritable(f"--out {out_path}: {exc.strerror or exc}") from None


def _timeout_s(text: str) -> float:
    """--timeout: a finite number of seconds above 0.  settimeout refuses a
    negative, nan or inf one with a traceback and takes 0 as non-blocking."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _limit(text: str) -> int:
    """--limit: ASCII digits for 1 or more fixes, the rule the server reads
    a query's limit by.  int() would take '+2', ' 2' and '1_0' too."""
    value = digits(text)
    if not value:  # None or 0
        raise argparse.ArgumentTypeError(
            f"must be a whole number of 1 or more in ASCII digits, got {text!r}")
    return value


def _device_id(text: str) -> str:
    """--device: not empty, as the server asks of a query's device_id."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echoguide-tracker",
        description="Query the tracking server for a device's location.",
    )
    parser.add_argument("--server", type=_server_text, default=DEFAULT_SERVER,
                        help=f"tracking server host:port or URL (default {DEFAULT_SERVER})")
    parser.add_argument("--device", type=_device_id, required=True,
                        help="device id to look up, not empty")
    parser.add_argument("--timeout", type=_timeout_s, default=5.0,
                        help="HTTP timeout in seconds, finite and above 0 (default 5)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("get-location", help="print the latest fix as one line")

    p_map = sub.add_parser("show-map", help="write a GeoJSON Point and print a maps URL")
    p_map.add_argument("--out", default=None,
                       help="GeoJSON output path ('-' or omitted: stdout)")

    p_track = sub.add_parser("track", help="write the recent trail as GeoJSON")
    p_track.add_argument("--limit", type=_limit, default=DEFAULT_TRACK_LIMIT,
                         help=f"number of recent fixes, 1 or more (default {DEFAULT_TRACK_LIMIT})")
    p_track.add_argument("--out", default=None,
                         help="GeoJSON output path ('-' or omitted: stdout)")

    args = parser.parse_args(argv)

    try:
        if args.command == "get-location":
            fix = fetch_latest(args.server, args.device, args.timeout)
            print(fix_line(fix))
        elif args.command == "show-map":
            fix = fetch_latest(args.server, args.device, args.timeout)
            feature, url = show_map(fix)
            _write_geojson(feature, args.out)
            print(url)
        else:  # track
            fixes = fetch_history(args.server, args.device, args.limit, args.timeout)
            if not fixes:
                print(f"no fixes recorded for device '{args.device}'", file=sys.stderr)
                return EXIT_NO_FIX
            _write_geojson(track_feature(fixes), args.out)
    except ServerUnreachable as exc:
        print(f"server unreachable: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except BadReply as exc:
        print(f"bad server reply: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except NoFix:
        print(f"no fix recorded for device '{args.device}'", file=sys.stderr)
        return EXIT_NO_FIX
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2  # as for a bad argument
    finally:
        _close_idle()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
