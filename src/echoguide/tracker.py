"""Guardian-side tracker CLI: query the tracking server for a device's
latest fix or trail and emit map-ready output.

Subcommands: get-location (print the newest fix), show-map (GeoJSON Point
plus a maps URL), track (GeoJSON trail).  Exit codes: 0 success, 2 server
unreachable or its reply malformed, 3 no fix recorded for the device.

Queries go over HTTP/1.1 persistent connections: each one the server
leaves open goes back to an idle list for the next query to the same
server, from any thread.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import sys
import threading
from typing import Optional
from urllib.parse import urlencode, urlsplit

from .jsonread import FIX_FIELDS, bounded_rule, list_rule, object_rule, read_json

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


# A fix as the server sends it: the fields it was posted with, plus the record id.
_REPLY_FIX = object_rule({**FIX_FIELDS, "id": bounded_rule(int, 1, math.inf, "must be >= 1")},
                         required=(*FIX_FIELDS, "id"))
_REPLY_TRAIL = list_rule(_REPLY_FIX)


def _base_url(server: str) -> str:
    if server.startswith(("http://", "https://")):
        return server.rstrip("/")
    return "http://" + server.rstrip("/")


# Idle kept-alive connections by (scheme, host, port), most recently used last.
_idle: dict[tuple[str, str, int], list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()

# How a connection that sat idle fails once the server has closed it: the GET
# is sent (or refused) and no status line comes back.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _exchange(conn: http.client.HTTPConnection, target: str) -> http.client.HTTPResponse:
    """Send the GET and read the reply's status line and headers."""
    conn.request("GET", target)
    return conn.getresponse()


def _get_json(url: str, timeout: float) -> tuple[int, object]:
    """Status and decoded body of a GET, over an idle connection to the same
    server when there is one.  A 200 body that is not UTF-8 JSON raises
    BadReply; any other body that is not becomes {"error": reason}.

    Only a connection taken from the idle list is tried again, on a new
    connection and once, and only when it fails before a status line
    arrives: the server may have closed it while it sat idle.
    """
    parts = urlsplit(url)
    https = parts.scheme == "https"
    try:
        port = parts.port or (443 if https else 80)
    except ValueError as exc:  # a port that is not a number in 0..65535
        raise ServerUnreachable(str(exc)) from None
    if not parts.hostname:
        raise ServerUnreachable("no host given")
    key = (parts.scheme, parts.hostname, port)
    target = f"{parts.path}?{parts.query}"
    with _idle_lock:
        idle = _idle.get(key)
        conn = idle.pop() if idle else None
    try:
        response = None
        if conn is not None:
            conn.sock.settimeout(timeout)
            try:
                response = _exchange(conn, target)
            except _STALE:
                conn.close()
        if response is None:
            connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = connection(parts.hostname, port, timeout=timeout)
            response = _exchange(conn, target)
        body = response.read()
    except (http.client.HTTPException, OSError) as exc:  # OSError: refused, reset, timed out
        if conn is not None:
            conn.close()
        raise ServerUnreachable(str(exc) or type(exc).__name__) from None
    if response.will_close:
        conn.close()
    else:
        with _idle_lock:
            _idle.setdefault(key, []).append(conn)
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one too
        if response.status == 200:
            raise BadReply(f"reply: not valid JSON ({exc})") from None
        payload = {"error": response.reason}
    return response.status, payload


def _close_idle() -> None:
    """Close every idle connection, for a process that is about to end."""
    with _idle_lock:
        conns = [conn for idle in _idle.values() for conn in idle]
        _idle.clear()
    for conn in conns:
        conn.close()


def fetch_latest(server: str, device_id: str, timeout: float = 5.0) -> dict:
    """Latest fix for a device; raises NoFix (404), ServerUnreachable or BadReply."""
    url = f"{_base_url(server)}/api/locations/latest?{urlencode({'device_id': device_id})}"
    status, payload = _get_json(url, timeout)
    if status == 404:
        raise NoFix(device_id)
    if status != 200:
        raise ServerUnreachable(f"unexpected response {status}: {payload}")
    return read_json(payload, _REPLY_FIX, BadReply, "reply")


def fetch_history(server: str, device_id: str, limit: int, timeout: float = 5.0) -> list[dict]:
    """Fix trail for a device, ascending by time; may be empty."""
    query = urlencode({"device_id": device_id, "limit": limit})
    url = f"{_base_url(server)}/api/locations?{query}"
    status, payload = _get_json(url, timeout)
    if status != 200:
        raise ServerUnreachable(f"unexpected response {status}: {payload}")
    return read_json(payload, _REPLY_TRAIL, BadReply, "reply")


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


def _write_geojson(doc: dict, out_path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path is None or out_path == "-":
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


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


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echoguide-tracker",
        description="Query the tracking server for a device's location.",
    )
    parser.add_argument("--server", default=DEFAULT_SERVER,
                        help=f"tracking server host:port or URL (default {DEFAULT_SERVER})")
    parser.add_argument("--device", required=True, help="device id to look up")
    parser.add_argument("--timeout", type=_timeout_s, default=5.0,
                        help="HTTP timeout in seconds, finite and above 0 (default 5)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("get-location", help="print the latest fix as one line")

    p_map = sub.add_parser("show-map", help="write a GeoJSON Point and print a maps URL")
    p_map.add_argument("--out", default=None,
                       help="GeoJSON output path ('-' or omitted: stdout)")

    p_track = sub.add_parser("track", help="write the recent trail as GeoJSON")
    p_track.add_argument("--limit", type=int, default=DEFAULT_TRACK_LIMIT,
                         help=f"number of recent fixes (default {DEFAULT_TRACK_LIMIT})")
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
            if args.limit < 1:
                parser.error("--limit must be >= 1")
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
    finally:
        _close_idle()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
