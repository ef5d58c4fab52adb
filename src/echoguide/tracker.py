"""Guardian-side tracker CLI: query the tracking server for a device's
latest fix or trail and emit map-ready output.

Subcommands: get-location (print the newest fix), show-map (GeoJSON Point
plus a maps URL), track (GeoJSON trail).  Exit codes: 0 success, 2 server
unreachable or its reply malformed, 3 no fix recorded for the device.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import urllib.error
import urllib.request
from typing import Optional
from urllib.parse import urlencode

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


def _get_json(url: str, timeout: float) -> tuple[int, object]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        # Server answered with an error status; still a reachable server.
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            payload = {"error": exc.reason}
        return exc.code, payload
    except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
        raise ServerUnreachable(str(exc)) from None


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


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echoguide-tracker",
        description="Query the tracking server for a device's location.",
    )
    parser.add_argument("--server", default=DEFAULT_SERVER,
                        help=f"tracking server host:port or URL (default {DEFAULT_SERVER})")
    parser.add_argument("--device", required=True, help="device id to look up")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="HTTP timeout in seconds (default 5)")
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
