"""Tracker CLI: output formatting units plus end-to-end runs of main()
against a live tracking server."""

from __future__ import annotations

import copy
import http.client
import json
import os
import random
import re
import select
import shutil
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_store

from echoguide import tracker
from echoguide.jsonread import RECORD, list_rule, read_json
from echoguide.httploop import MAX_HEAD_BYTES
from echoguide.server import FixRecord, TrackRequestHandler, TrackStore
from echoguide.tracker import (
    EXIT_NO_FIX,
    EXIT_OK,
    EXIT_UNREACHABLE,
    BadReply,
    NoFix,
    ServerUnreachable,
    fetch_history,
    fetch_latest,
    fix_line,
    format_coord,
    main,
    map_url,
    point_feature,
    track_feature,
)

from conftest import at_second, free_port, http_post, in_process_server, serve_store


def fix_dict(minute=5, lat=22.9006, lon=89.5024, provider="gps", device="walker-1"):
    return {
        "device_id": device,
        "latitude": lat,
        "longitude": lon,
        "timestamp": f"2015-06-01T00:{minute:02d}:00Z",
        "provider": provider,
    }


# -- formatting units ---------------------------------------------------------------


@pytest.mark.parametrize("value,text", [
    (22.9006, "22.9006"),
    (22.0, "22"),
    (-0.0000004, "0"),
    (0.0, "0"),
    (-12.345678, "-12.345678"),
    (1.2345678, "1.234568"),
])
def test_format_coord_trims_trailing_zeros(value, text):
    assert format_coord(value) == text


def test_fix_line_fields_and_precision():
    line = fix_line(fix_dict())
    assert line == "walker-1 22.900600 89.502400 2015-06-01T00:05:00Z gps"


def test_map_url_uses_trimmed_coordinates():
    assert map_url(fix_dict()) == "https://www.google.com/maps?q=22.9006,89.5024"
    assert map_url(fix_dict(lat=10.0, lon=-20.5)) == "https://www.google.com/maps?q=10,-20.5"


def test_point_feature_is_lon_lat_geojson():
    feature = point_feature(fix_dict())
    assert feature["type"] == "Feature"
    assert feature["geometry"]["type"] == "Point"
    assert feature["geometry"]["coordinates"] == [89.5024, 22.9006]
    assert feature["properties"] == {
        "device_id": "walker-1",
        "timestamp": "2015-06-01T00:05:00Z",
        "provider": "gps",
    }


def test_track_feature_linestring_and_metadata():
    fixes = [fix_dict(minute=5), fix_dict(minute=10, lat=22.91, lon=89.51),
             fix_dict(minute=15, lat=22.92, lon=89.52)]
    feature = track_feature(fixes)
    assert feature["geometry"]["type"] == "LineString"
    assert feature["geometry"]["coordinates"] == [
        [89.5024, 22.9006], [89.51, 22.91], [89.52, 22.92]]
    props = feature["properties"]
    assert props["count"] == 3
    assert props["start_timestamp"] == "2015-06-01T00:05:00Z"
    assert props["end_timestamp"] == "2015-06-01T00:15:00Z"


def test_track_feature_single_fix_degenerates_to_point():
    assert track_feature([fix_dict()])["geometry"]["type"] == "Point"


def test_track_feature_requires_at_least_one_fix():
    with pytest.raises(ValueError):
        track_feature([])


# -- CLI against a live server ---------------------------------------------------------


def count_connections(httpd) -> list:
    """Make httpd append each connection it accepts to the list returned."""
    accepted = []
    process_request = httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    httpd.process_request = counting
    return accepted


@pytest.fixture
def live_tracking(tmp_path):
    """A store served in-process, and the server's host:port."""
    store = TrackStore(tmp_path / "locations.jsonl")
    with in_process_server(store) as httpd:
        yield store, f"127.0.0.1:{httpd.server_address[1]}"


def test_get_location_prints_latest_line(live_tracking, capsys):
    store, server = live_tracking
    store.insert(fix_dict(minute=5))
    store.insert(fix_dict(minute=10, lat=23.0, lon=90.0, provider="network"))
    code = main(["--server", server, "--device", "walker-1", "get-location"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "walker-1 23.000000 90.000000 2015-06-01T00:10:00Z network"


def test_get_location_no_fix_exits_3(live_tracking, capsys):
    _, server = live_tracking
    code = main(["--server", server, "--device", "ghost", "get-location"])
    assert code == EXIT_NO_FIX
    assert "ghost" in capsys.readouterr().err


def test_show_map_emits_point_and_url(live_tracking, capsys, tmp_path):
    store, server = live_tracking
    store.insert(fix_dict())
    out_path = tmp_path / "point.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "show-map", "--out", str(out_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "https://www.google.com/maps?q=22.9006,89.5024"
    doc = json.loads(out_path.read_text())
    assert doc["geometry"] == {"type": "Point", "coordinates": [89.5024, 22.9006]}


def test_show_map_stdout_when_no_out(live_tracking, capsys):
    store, server = live_tracking
    store.insert(fix_dict())
    code = main(["--server", server, "--device", "walker-1", "show-map"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # GeoJSON first, maps URL as the final line.
    body, last = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(body)["type"] == "Feature"
    assert last.startswith("https://www.google.com/maps?q=")


def test_track_writes_linestring(live_tracking, capsys, tmp_path):
    store, server = live_tracking
    for minute, lat in ((5, 22.0), (10, 22.5), (15, 23.0)):
        store.insert(fix_dict(minute=minute, lat=lat))
    out_path = tmp_path / "trail.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "track", "--out", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["geometry"]["type"] == "LineString"
    assert doc["properties"]["count"] == 3


def test_track_limit_truncates_to_most_recent(live_tracking, tmp_path):
    store, server = live_tracking
    for minute in (5, 10, 15, 20):
        store.insert(fix_dict(minute=minute, lat=20.0 + minute))
    out_path = tmp_path / "trail.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "track", "--limit", "2", "--out", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["properties"]["count"] == 2
    assert doc["properties"]["start_timestamp"] == "2015-06-01T00:15:00Z"


def test_track_limit_1_passes_the_bound_and_asks_for_one_fix(live_tracking, tmp_path,
                                                             monkeypatch):
    # The smallest limit taken: 1 reaches the server as limit=1.
    store, server = live_tracking
    for minute in (5, 10, 15):
        store.insert(fix_dict(minute=minute, lat=20.0 + minute))
    asked = []
    recent = store.recent
    monkeypatch.setattr(store, "recent", lambda *args: asked.append(args) or recent(*args))
    out_path = tmp_path / "trail.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "track", "--limit", "1", "--out", str(out_path)])
    assert code == EXIT_OK
    assert asked == [("walker-1", 1)]
    doc = json.loads(out_path.read_text())  # one fix: a Point at the newest
    assert doc["geometry"] == {"type": "Point", "coordinates": [89.5024, 35.0]}
    assert doc["properties"]["timestamp"] == "2015-06-01T00:15:00Z"


def test_track_empty_history_exits_3(live_tracking, capsys):
    _, server = live_tracking
    code = main(["--server", server, "--device", "walker-1", "track"])
    assert code == EXIT_NO_FIX
    assert "no fixes" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["show-map"], ["track"]])
def test_an_out_path_that_cannot_be_written_exits_2_naming_it(live_tracking, capsys, tmp_path,
                                                             command):
    store, server = live_tracking
    store.insert(fix_dict())
    out_path = tmp_path / "no" / "such" / "dir" / "x.geojson"
    code = main(["--server", server, "--device", "walker-1", *command, "--out", str(out_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out_path}: No such file or directory\n"


def test_unreachable_server_exits_2(capsys):
    port = free_port()  # nothing is listening here
    code = main(["--server", f"127.0.0.1:{port}", "--device", "walker-1",
                 "--timeout", "2", "get-location"])
    assert code == EXIT_UNREACHABLE
    assert "unreachable" in capsys.readouterr().err


# -- kept-alive connections ------------------------------------------------------------


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "0"])
def test_timeout_not_finite_and_above_0_exits_2_before_any_socket(monkeypatch, capsys, value):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_connection", no_socket)
    with pytest.raises(SystemExit) as excinfo:
        main(["--server", "127.0.0.1:8750", "--device", "walker-1", "--timeout", value,
              "get-location"])
    assert excinfo.value.code == 2
    assert (f"argument --timeout: must be a finite number above 0, got '{value}'"
            in capsys.readouterr().err)


def test_an_empty_device_exits_2_before_any_socket(monkeypatch, capsys):
    # The server answers an empty device_id with a 400, which the tracker
    # would report as the server being unreachable.
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_connection", no_socket)
    for command in (["get-location"], ["show-map"], ["track", "--limit", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["--server", "127.0.0.1:8750", "--device", "", *command])
        assert excinfo.value.code == 2
        assert "argument --device: must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "+2", "1_0"])
def test_a_limit_not_ascii_digits_for_1_or_more_exits_2_before_any_socket(monkeypatch, capsys,
                                                                           value):
    # The server reads a query's limit by the same rule; int() takes '+2' and '1_0'.
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_connection", no_socket)
    with pytest.raises(SystemExit) as excinfo:
        main(["--server", "127.0.0.1:8750", "--device", "walker-1", "track", "--limit", value])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "echoguide-tracker track: error: argument --limit: "
        f"must be a whole number of 1 or more in ASCII digits, got '{value}'")


def test_fetches_on_one_thread_share_one_connection():
    store = TrackStore()
    store.insert(fix_dict())
    with in_process_server(store) as httpd:
        accepted = count_connections(httpd)
        server = f"127.0.0.1:{httpd.server_address[1]}"
        for _ in range(3):
            assert fetch_latest(server, "walker-1")["latitude"] == 22.9006
        assert len(accepted) == 1


def test_connection_the_server_dropped_while_idle_is_retried_once():
    store = TrackStore()
    store.insert(fix_dict())
    with in_process_server(store, timeout_s=0.2) as httpd:
        accepted = count_connections(httpd)
        server = f"127.0.0.1:{httpd.server_address[1]}"
        fetch_latest(server, "walker-1")
        time.sleep(0.8)  # the handler gives up on the idle connection and closes it
        assert fetch_latest(server, "walker-1")["latitude"] == 22.9006
        assert len(accepted) == 2


def test_server_restarted_on_the_same_port_answers_the_next_fetch():
    port = free_port()
    for lat in (10.0, 20.0):  # each a new server over a new store, on the one port
        store = TrackStore()
        store.insert(fix_dict(lat=lat))
        with in_process_server(store, port):
            assert fetch_latest(f"127.0.0.1:{port}", "walker-1")["latitude"] == lat


def test_idle_connection_to_a_stopped_server_is_still_exit_2(capsys):
    store = TrackStore()
    store.insert(fix_dict())
    with in_process_server(store) as httpd:
        server = f"127.0.0.1:{httpd.server_address[1]}"
        fetch_latest(server, "walker-1")
    # nothing listens on the port now; the retry is refused
    code = main(["--server", server, "--device", "walker-1", "get-location"])
    assert code == EXIT_UNREACHABLE
    assert capsys.readouterr().err.startswith("server unreachable: ")


def test_a_process_that_fetched_exits_with_no_unclosed_socket(live_tracking):
    """fetch_latest keeps its connection idle for the next fetch; the
    process closes it at exit, so -X dev reports no unclosed socket."""
    store, server = live_tracking
    store.insert(fix_dict())
    code = f"from echoguide.tracker import fetch_latest; fetch_latest({server!r}, 'walker-1')"
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                             "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr


# -- CLI against a stub server whose replies are malformed ------------------------------


class StubHandler(BaseHTTPRequestHandler):
    """Answers every GET with the server's `status` (200) and `reply`: JSON,
    or bytes as they are.  With the server's `close` set, each reply says Connection:
    close.  A second GET on one connection gets no reply: it waits for the
    server's `release` and is dropped."""

    protocol_version = "HTTP/1.1"
    requests = 0

    def do_GET(self):
        self.requests += 1
        if self.requests > 1:
            self.server.release.wait(5.0)
            self.close_connection = True
            return
        reply = self.server.reply
        body = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
        self.send_response(*self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.server.close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def stub_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    httpd.close = False
    httpd.status = (200,)
    httpd.release = threading.Event()
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield httpd
    httpd.release.set()
    httpd.shutdown()
    httpd.server_close()
    thread.join()


def reply_fix(**changes):
    fix = {"id": 7, **fix_dict()}
    fix.update(changes)
    return {key: value for key, value in fix.items() if value is not None}


def run_against(stub, reply, *command) -> int:
    stub.reply = reply
    host, port = stub.server_address[:2]
    return main(["--server", f"{host}:{port}", "--device", "walker-1", *command])


def test_stub_serves_a_well_formed_reply(stub_server, capsys):
    assert run_against(stub_server, reply_fix(latitude=23), "get-location") == EXIT_OK
    assert capsys.readouterr().out == "walker-1 23.000000 89.502400 2015-06-01T00:05:00Z gps\n"


@pytest.mark.parametrize("command, reply, named", [
    (["get-location"], reply_fix(latitude="22.9"), "latitude: must be a finite number"),
    (["get-location"], reply_fix(provider=None), "provider: missing"),
    (["get-location"], reply_fix(id=None), "id: missing"),
    (["get-location"], [reply_fix()], "reply: must be an object"),
    (["show-map"], reply_fix(longitude=200.0), "longitude: must be a number in [-180, 180]"),
    (["show-map"], reply_fix(timestamp="yesterday"), "timestamp: must be an ISO-8601"),
    (["show-map"], reply_fix(device_id=5), "device_id: must be a non-empty string"),
    (["track"], [reply_fix(), reply_fix(latitude=True)], "[1].latitude: must be a finite number"),
    (["track"], [reply_fix(), {**reply_fix(), "lat": 1.0}], "[1].lat: unknown field"),
    (["track"], reply_fix(), "reply: must be a list"),
    (["get-location"], reply_fix(device_id="walker-2"), "device_id: must be 'walker-1'"),
    (["track"], [reply_fix(), reply_fix(device_id="walker-2")],
     "[1].device_id: must be 'walker-1'"),
    (["track", "--limit", "2"], [reply_fix(id=i) for i in range(1, 6)],
     "reply: 5 fixes, more than the limit of 2"),
], ids=["latitude a string", "provider missing", "id missing", "latest a list",
        "longitude out of range", "timestamp not an instant", "device_id a number",
        "latitude a bool", "unknown field", "history an object", "latest another device's",
        "trail entry another device's", "trail longer than the limit"])
def test_malformed_reply_exits_2_naming_the_field(stub_server, capsys, command, reply, named):
    assert run_against(stub_server, reply, *command) == EXIT_UNREACHABLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bad server reply: {named}")


@pytest.mark.parametrize("reply", [b"<html>not json</html>", b'"\xff"'],
                         ids=["not JSON", "not UTF-8"])
def test_reply_that_is_not_json_exits_2(stub_server, capsys, reply):
    assert run_against(stub_server, reply, "get-location") == EXIT_UNREACHABLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad server reply: reply: not valid JSON")


def test_reply_with_connection_close_is_not_kept(stub_server):
    stub_server.reply = reply_fix()
    stub_server.close = True
    accepted = count_connections(stub_server)
    host, port = stub_server.server_address[:2]
    for _ in range(2):
        assert fetch_latest(f"{host}:{port}", "walker-1")["id"] == 7
    assert len(accepted) == 2
    assert not tracker._idle.get(("http", host, port))


def test_timeout_bounds_a_kept_alive_connection_and_is_not_retried(stub_server):
    stub_server.reply = reply_fix()
    accepted = count_connections(stub_server)
    host, port = stub_server.server_address[:2]
    fetch_latest(f"{host}:{port}", "walker-1", timeout=5.0)
    started = time.monotonic()
    with pytest.raises(ServerUnreachable, match="timed out"):
        fetch_latest(f"{host}:{port}", "walker-1", timeout=0.3)  # the stub stalls
    assert time.monotonic() - started < 2.0
    assert len(accepted) == 1


def test_an_unexpected_status_with_a_body_not_json_names_its_reason(stub_server):
    host, port = stub_server.server_address[:2]
    stub_server.status, stub_server.reply = (503, "Warming Up"), b"<html>later</html>"
    with pytest.raises(ServerUnreachable, match=r"^unexpected response 503: .*'Warming Up'"):
        fetch_latest(f"{host}:{port}", "walker-1")


def test_a_malformed_reply_after_a_good_one_to_the_same_url_is_refused(stub_server):
    stub_server.close = True  # a connection per fetch: the stub answers one GET on each
    host, port = stub_server.server_address[:2]
    server = f"{host}:{port}"
    stub_server.reply = reply_fix()
    assert fetch_latest(server, "walker-1") == reply_fix()
    for reply, named in ((reply_fix(latitude="22.9"), "latitude"), (b"not json", "reply"),
                         (reply_fix(device_id="walker-2"), "device_id")):
        stub_server.reply = reply
        with pytest.raises(BadReply, match=f"^{named}: "):
            fetch_latest(server, "walker-1")
    stub_server.reply = [reply_fix()]
    assert fetch_history(server, "walker-1", 3) == [reply_fix()]
    stub_server.reply = [reply_fix(id=i) for i in range(1, 5)]
    with pytest.raises(BadReply, match="^reply: 4 fixes"):
        fetch_history(server, "walker-1", 3)
    stub_server.reply = reply_fix(latitude=23.0)
    assert fetch_latest(server, "walker-1")["latitude"] == 23.0


# -- replies as HTTP frames them, over raw sockets -------------------------------------


class RawStub:
    """A server that answers the requests on each connection with `replies`
    in turn, bytes as they are, and then sends `stray` unasked, 0.1 s later.
    After that it closes the connection if `close` is set (with a reset if
    `reset` is) and else holds it open until stopped.  `heads` collects the
    request heads it reads."""

    def __init__(self, replies, close=False, host="127.0.0.1", reset=False, stray=b""):
        self.replies, self.close, self.reset, self.stray = replies, close or reset, reset, stray
        self.heads, self.held = [], []
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.listener = socket.create_server((host, 0), family=family)
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self.key = ("http", host, self.port)
        self.server = f"[{host}]:{self.port}" if ":" in host else f"{host}:{self.port}"
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(5.0)
            try:
                for reply in self.replies:
                    head = b""
                    while b"\r\n\r\n" not in head and (data := conn.recv(65536)):
                        head += data
                    self.heads.append(head)
                    conn.sendall(reply)
                if self.stray:
                    time.sleep(0.1)
                    conn.sendall(self.stray)
            except OSError:  # the client gave up on a reply it refused
                pass
            if self.reset:
                time.sleep(0.2)  # the client reads what was sent before the reset
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            if self.close:
                conn.close()
            else:
                self.held.append(conn)

    def held_connections_closed_by_the_client(self) -> bool:
        for conn in self.held:
            conn.settimeout(2.0)
            try:
                if conn.recv(1) != b"":
                    return False
            except ConnectionResetError:
                pass
        return True

    def stop(self):
        self.stopping.set()
        self.thread.join()
        self.listener.close()
        for conn in self.held:
            conn.close()


@pytest.fixture
def raw_stub():
    stubs = []

    def start(*replies: bytes, **options) -> RawStub:
        stubs.append(RawStub(replies, **options))
        return stubs[-1]

    yield start
    tracker._close_idle()
    for stub in stubs:
        stub.stop()


FIX_BODY = json.dumps(reply_fix()).encode()
FIX_LINE = "walker-1 22.900600 89.502400 2015-06-01T00:05:00Z gps\n"


def fixed_length(*fields: str, status: str = "HTTP/1.1 200 OK", body: bytes = FIX_BODY,
                 length: object = None) -> bytes:
    """A reply whose body Content-Length frames, `length` if given."""
    head = [status, f"Content-Length: {len(body) if length is None else length}", *fields]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


# Replies as HTTP lets a server frame them, each with whether the server
# closes the connection after it and whether the tracker keeps it for reuse.
READABLE = [
    ("chunked", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     + b"a;name=value\r\n" + FIX_BODY[:10] + b"\r\n"
     + b"%X\r\n" % (len(FIX_BODY) - 10) + FIX_BODY[10:] + b"\r\n"
     + b"000\r\nX-Trailer: ignored\r\n\r\n", False, True),
    ("chunk size of 16 hex digits", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     + b"%016X\r\n" % len(FIX_BODY) + FIX_BODY + b"\r\n0\r\n\r\n", False, True),
    ("chunk size line at its byte budget",
     b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     + b"%X;" % len(FIX_BODY) + b"x" * (MAX_HEAD_BYTES - 5) + b"\r\n" + FIX_BODY
     + b"\r\n0\r\n\r\n", False, True),
    ("HTTP/1.0 ended by close",
     b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + FIX_BODY, True, False),
    ("last coding not chunked, ended by close",
     b"HTTP/1.1 200 OK\r\nTransfer-Encoding: identity\r\n\r\n" + FIX_BODY, True, False),
    ("Connection: close", fixed_length("Connection: close"), False, False),
    ("HTTP/1.0 with Content-Length", fixed_length(status="HTTP/1.0 200 OK"), False, False),
    ("HTTP/1.0 keep-alive", fixed_length("Connection: keep-alive", status="HTTP/1.0 200 OK"),
     False, True),
    ("1xx before the 200", b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\n"
     b"Link: </x>\r\n\r\n" + fixed_length(), False, True),
    ("bare LF line ends", fixed_length().replace(b"\r\n", b"\n", 2), False, True),
    ("bare LF line ends, a body starting CRLF",
     fixed_length(body=b"\r\n" + FIX_BODY).replace(b"\r\n", b"\n", 3), False, True),
    ("bytes past the reply", fixed_length() + b"HTTP/1.1 200 OK\r\n", False, False),
    ("Content-Length N, N", fixed_length(length=f"{len(FIX_BODY)}, {len(FIX_BODY)}"), False, True),
    ("Content-Length N twice", fixed_length(f"Content-Length: {len(FIX_BODY)}"), False, True),
]


@pytest.mark.parametrize("reply, close, kept", [row[1:] for row in READABLE],
                         ids=[row[0] for row in READABLE])
def test_a_reply_framed_as_http_allows_is_read_and_kept_only_if_left_open(
        raw_stub, capsys, reply, close, kept):
    stub = raw_stub(reply, close=close)
    assert main(["--server", stub.server, "--device", "walker-1", "get-location"]) == EXIT_OK
    assert capsys.readouterr().out == FIX_LINE
    assert fetch_latest(stub.server, "walker-1") == reply_fix()
    assert len(tracker._idle.get(stub.key, [])) == kept
    assert len(stub.heads) == 2


# Replies the tracker cannot read, each with whether the server closes the
# connection after it and the start of the error that names what is wrong.
UNREADABLE = [
    ("status of 4 digits", b"HTTP/1.1 2000 OK\r\n\r\n", False,
     "bad status line 'HTTP/1.1 2000 OK'"),
    ("not HTTP", b"ICY 200 OK\r\n\r\n", False, "bad status line 'ICY 200 OK'"),
    ("HTTP/2", b"HTTP/2 200\r\n\r\n", False, "bad status line 'HTTP/2 200'"),
    ("status below 100", b"HTTP/1.1 099 Low\r\n\r\n", False, "bad status line"),
    ("head over 64 KiB", b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", False,
     "reply head over 65536 bytes"),
    ("100 field lines", fixed_length(*(f"X-{i}: {i}" for i in range(99))), False,
     "reply head over 100 header lines"),
    ("obs-fold", fixed_length(" folded: value"), False, "bad header line ' folded: value'"),
    ("field line without a colon", fixed_length("no colon"), False, "bad header line 'no colon'"),
    ("short body", fixed_length(length=len(FIX_BODY) + 5), True,
     f"short body: {len(FIX_BODY)} of"),
    ("Content-Length not digits", fixed_length(length="abc"), False, "bad Content-Length 'abc'"),
    ("Content-Length negative", fixed_length(length="-1"), False, "bad Content-Length '-1'"),
    ("Content-Length signed", fixed_length(length="+5"), False, "bad Content-Length '+5'"),
    ("two Content-Lengths that differ", fixed_length(f"Content-Length: {len(FIX_BODY) + 1}"),
     False, "bad Content-Length"),
    ("Content-Length N, M", fixed_length(length=f"{len(FIX_BODY)}, {len(FIX_BODY) + 1}"), False,
     f"bad Content-Length '{len(FIX_BODY)}, {len(FIX_BODY) + 1}'"),
    ("Content-Length of 18 digits", fixed_length(length=10**17), True,
     f"short body: {len(FIX_BODY)} of {10**17} bytes"),
    ("Content-Length of 19 digits", fixed_length(length=10**18), False,
     f"bad Content-Length '{10**18}'"),
    ("Content-Length of 40 digits", fixed_length(length="9" * 40), False, "bad Content-Length"),
    ("bad chunk size", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", False,
     "bad chunk size line 'zz'"),
    ("chunk size of 17 digits",
     b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1%s\r\n" % (b"0" * 16), False,
     "bad chunk size line '1%s'" % ("0" * 16)),
    ("chunk size line over its byte budget",
     b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;" + b"x" * (MAX_HEAD_BYTES - 2),
     False, f"chunk size line over {MAX_HEAD_BYTES} bytes"),
    ("chunk longer than its size",
     b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabc\r\n", False,
     "chunk data longer than its size"),
    ("short chunk", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", True,
     "short body: 2 of 5 bytes"),
    ("head cut short", b"HTTP/1.1 200 OK\r\nContent-Len", True,
     "the server closed the connection mid-reply"),
    ("no reply at all", b"", True, "the server closed the connection with no reply"),
]


@pytest.mark.parametrize("reply, close, named", [row[1:] for row in UNREADABLE],
                         ids=[row[0] for row in UNREADABLE])
def test_a_reply_that_cannot_be_read_exits_2_and_its_connection_is_closed(
        raw_stub, capsys, reply, close, named):
    stub = raw_stub(reply, close=close)
    with pytest.raises(ServerUnreachable, match=re.escape(named)):
        fetch_latest(stub.server, "walker-1")
    assert not tracker._idle.get(stub.key)
    assert stub.held_connections_closed_by_the_client()
    assert main(["--server", stub.server, "--device", "walker-1", "get-location"]) == \
        EXIT_UNREACHABLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"server unreachable: {named}")


class Arrivals:
    """A socket on which `pieces` arrive, each read by a recv of its own;
    then the server closes it (close) or stays silent until the timeout."""

    def __init__(self, pieces, close):
        self.pieces, self.closes = [piece for piece in pieces if piece], close

    def sendall(self, data):
        pass

    def recv(self, size):
        if self.pieces:
            piece = self.pieces.pop(0)
            self.pieces[:0] = [piece[size:]] if piece[size:] else []
            return piece[:size]
        if self.closes:
            return b""
        raise TimeoutError("timed out")


def read_arrivals(pieces, close):
    """What _Reply reads from `pieces`: (status, reason, fields, body,
    whether it keeps the connection) or the error it raises."""
    reply = tracker._Reply(Arrivals(pieces, close))
    try:
        reply.read(b"")
    except (ServerUnreachable, OSError) as exc:
        return type(exc).__name__, str(exc)
    # Bytes past the reply close it only when they have come: count them as come.
    past = reply.pos != len(reply.buf)
    return reply.status, reply.reason, reply.fields, reply.body, reply.close and not past


@pytest.mark.parametrize("reply, close", [row[1:3] for row in READABLE + UNREADABLE],
                         ids=[row[0] for row in READABLE + UNREADABLE])
@settings(max_examples=5)
@given(cuts=st.data())
def test_a_reply_reads_the_same_when_it_comes_in_pieces(reply, close, cuts):
    ends = cuts.draw(st.lists(st.integers(0, len(reply)), max_size=6).map(sorted), label="cuts")
    bounds = [0, *ends, len(reply)]
    pieces = [reply[a:b] for a, b in zip(bounds, bounds[1:])]
    assert read_arrivals(pieces, close) == read_arrivals([reply], close)


@pytest.fixture(scope="module")
def recording_server():
    """A server that notes what each reply it sends is meant to say:
    (status, body, whether the connection closes after it)."""

    class Recording(TrackRequestHandler):
        def _send(self, status, body, close=False):
            super()._send(status, body, close)
            self.server.sent.append((status, body, self.close_connection))

    with in_process_server(TrackStore()) as httpd:
        httpd.handler = Recording
        yield httpd


_STORED = st.fixed_dictionaries({
    "device_id": st.sampled_from(["walker-1", "walker-2"]),
    "latitude": st.floats(-90, 90), "longitude": st.floats(-180, 180),
    "timestamp": st.integers(0, 3600).map(at_second), "provider": st.just("gps")})
_REQUESTS = st.one_of(
    st.sampled_from(["walker-1", "walker-2", "ghost", ""]).map(
        lambda device: f"GET /api/locations/latest?device_id={device} HTTP/1.1\r\n\r\n"),
    st.tuples(st.sampled_from(["walker-1", "ghost"]), st.sampled_from(["1", "3", "50", "0", "x"]))
    .map(lambda query: "GET /api/locations?device_id={}&limit={} HTTP/1.1\r\n\r\n".format(*query)),
    st.tuples(_STORED, st.sampled_from(["", "Expect: 100-continue\r\n"])).map(
        lambda post: "POST /api/locations HTTP/1.1\r\nContent-Length: {}\r\n{}\r\n{}".format(
            len(json.dumps(post[0])), post[1], json.dumps(post[0]))),
    st.sampled_from(["GET /api/nope HTTP/1.1\r\n\r\n",
                     "POST /api/locations HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
                     "PUT /api/locations HTTP/1.1\r\n\r\n", "FOO / HTTP/1.1\r\n\r\n",
                     "GET /api/locations/latest?device_id=walker-1 HTTP/1.0\r\n"
                     "Connection: keep-alive\r\n\r\n"]))


@settings(max_examples=25)
@given(stored=st.lists(_STORED, max_size=6), requests=st.lists(_REQUESTS, min_size=1, max_size=5))
def test_the_tracker_reads_each_reply_the_server_writes_as_the_server_meant_it(
        recording_server, stored, requests):
    """The bytes the server writes for a store and a run of pipelined
    requests, read by _Reply: each reply's status, fields and body are those
    the server meant, and nothing is left over."""
    store = TrackStore()
    for fix in stored:
        store.insert(fix)
    serve_store(recording_server, store)
    recording_server.sent = []
    wire = "".join(requests) + "GET /api/nope HTTP/1.1\r\nConnection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", recording_server.server_address[1]),
                                  timeout=2.0) as sock:
        sock.sendall(wire.encode())
        data = b"".join(iter(lambda: sock.recv(65536), b""))
    assert recording_server.sent and recording_server.sent[-1][2]  # the last reply closes
    reply = tracker._Reply(Arrivals([data], close=True))
    for status, body, close in recording_server.sent:
        reply.read(b"")
        meant = {"content-type": ["application/json; charset=utf-8"],
                 "content-length": [str(len(body))]}
        if status == 405:
            meant["allow"] = ["GET, POST"]
        if close:
            meant["connection"] = ["close"]
        date = reply.fields.pop("date")
        assert (reply.status, reply.reason, reply.fields, reply.body) == (
            status, http.client.responses[status], meant, body)
        assert len(date) == 1 and date[0].endswith(" GMT")
    assert reply.pos == len(reply.buf)


def test_an_idle_connection_reset_after_part_of_a_reply_is_not_retried(raw_stub):
    stub = raw_stub(fixed_length(), b"HTTP/1.1 200 OK\r\nContent-", reset=True)
    assert fetch_latest(stub.server, "walker-1") == reply_fix()
    with pytest.raises(ServerUnreachable, match="reset"):
        fetch_latest(stub.server, "walker-1")
    assert len(stub.heads) == 2  # both on the one connection: no retry
    assert not tracker._idle.get(stub.key)


def test_an_idle_connection_that_got_stray_bytes_is_not_reused(raw_stub):
    # An unasked 404 arrives on the idle connection after the first fetch;
    # reading it as the reply to the next GET would report no fix.
    stub = raw_stub(fixed_length(), stray=fixed_length(status="HTTP/1.1 404 Not Found",
                                                        body=b'{"error": "no fix"}'))
    assert fetch_latest(stub.server, "walker-1") == reply_fix()
    [first] = tracker._idle[stub.key]
    assert select.select([first], [], [], 5.0)[0]  # the stray reply has come
    assert fetch_latest(stub.server, "walker-1") == reply_fix()
    [second] = tracker._idle[stub.key]
    assert first.fileno() == -1 and second is not first  # the fix came over a new connection
    assert len(stub.heads) == 2


def test_a_204_has_no_body_and_keeps_its_connection(raw_stub):
    stub = raw_stub(b"HTTP/1.1 204 No Content\r\n\r\n")
    with pytest.raises(ServerUnreachable, match="^unexpected response 204: {'error': 'No Content'}"):
        fetch_latest(stub.server, "walker-1", timeout=2.0)
    assert len(tracker._idle[stub.key]) == 1


def test_a_head_that_fills_64_kib_without_ending_fails_at_once(raw_stub, capsys):
    # Exactly 65,536 head bytes and no blank line, then the server waits:
    # the client must give up on the budget, not wait out its timeout.
    prefix = b"HTTP/1.1 200 OK\r\nX-Long: "
    stub = raw_stub(prefix + b"a" * (65536 - len(prefix)))
    started = time.monotonic()
    code = main(["--server", stub.server, "--device", "walker-1", "--timeout", "5",
                 "get-location"])
    assert time.monotonic() - started < 2.5
    assert code == EXIT_UNREACHABLE
    assert capsys.readouterr().err == "server unreachable: reply head over 65536 bytes\n"


def test_a_99_field_head_of_64_kib_is_read(raw_stub):
    pad = "a" * (65536 - fixed_length(*["X: "] * 98).index(b"\r\n\r\n") - 4)
    reply = fixed_length(*["X: "] * 97, f"X: {pad}")  # and Content-Length: 99 field lines
    assert reply.index(b"\r\n\r\n") + 4 == 65536
    stub = raw_stub(reply)
    assert fetch_latest(stub.server, "walker-1") == reply_fix()


class WireSocket:
    """A socket for a fake tracker._connect: it keeps what is sent on it in
    `sent` and answers with `reply`, then ends."""

    def __init__(self, sent: list, reply: bytes) -> None:
        self.sent, self.reply = sent, reply

    def sendall(self, data: bytes) -> None:
        self.sent.append(data)

    def recv(self, size: int) -> bytes:
        data, self.reply = self.reply, b""
        return data

    def close(self) -> None:
        pass


@pytest.fixture
def wire(monkeypatch):
    """tracker._connect replaced by a fake that opens no socket: it records
    its (host, port, https) in .connects, and each connection records the
    bytes sent in .sent and answers the next of .replies."""
    wire = types.SimpleNamespace(connects=[], sent=[], replies=[])

    def connect(host, port, https, timeout):
        wire.connects.append((host, port, https))
        return WireSocket(wire.sent, wire.replies.pop(0))

    monkeypatch.setattr(tracker, "_connect", connect)
    return wire


@pytest.mark.parametrize("host, port, scheme", [
    ("example.org", 80, "http"), ("example.org", 8750, "http"), ("example.org", 443, "https"),
    ("example.org", 443, "http"), ("::1", 80, "http"), ("::1", 8750, "http"),
    ("2001:db8::1", 443, "https"), ("bücher.example", 80, "http"),
])
def test_the_get_is_the_request_http_client_writes(wire, host, port, scheme):
    netloc = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    wire.replies.append(fixed_length("Connection: close", body=b"[]"))
    assert fetch_history(f"{scheme}://{netloc}/base", "walker-1", 3) == []
    sent = []
    conn_type = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    conn = conn_type(host, port)
    conn.sock = type("Capture", (), {"sendall": lambda self, data: sent.append(data)})()
    conn.request("GET", "/base/api/locations?device_id=walker-1&limit=3")
    assert wire.sent == [b"".join(sent)]


def test_an_explicit_port_0_is_used_as_given(wire, capsys):
    wire.replies.append(fixed_length("Connection: close"))
    assert main(["--server", "127.0.0.1:0", "--device", "walker-1", "get-location"]) == EXIT_OK
    assert capsys.readouterr().out == FIX_LINE
    assert wire.connects == [("127.0.0.1", 0, False)]
    assert wire.sent == [b"GET /api/locations/latest?device_id=walker-1 HTTP/1.1\r\n"
                         b"Host: 127.0.0.1:0\r\nAccept-Encoding: identity\r\n\r\n"]


def test_the_host_field_brackets_an_ipv6_literal(raw_stub):
    try:
        stub = raw_stub(fixed_length(), host="::1")
    except OSError:
        pytest.skip("no IPv6 loopback")
    assert fetch_latest(stub.server, "walker-1") == reply_fix()
    assert stub.heads == [b"GET /api/locations/latest?device_id=walker-1 HTTP/1.1\r\n"
                          b"Host: [::1]:%d\r\nAccept-Encoding: identity\r\n\r\n" % stub.port]


@pytest.mark.parametrize("server, host, port, https, path, host_field", [
    ("EXAMPLE.Org", "example.org", 80, False, "", "example.org"),
    ("https://Example.ORG/", "example.org", 443, True, "", "example.org"),
    ("http://example.org:443", "example.org", 443, False, "", "example.org:443"),
    ("http://[::1]:8750/base/", "::1", 8750, False, "/base", "[::1]:8750"),
    ("https://[2001:DB8::1]", "2001:db8::1", 443, True, "", "[2001:db8::1]"),
    ("bücher.example:8080/a", "bücher.example", 8080, False, "/a", "xn--bcher-kva.example:8080"),
], ids=["upper case", "https", "http on 443", "IPv6", "IPv6 https", "IDNA"])
def test_a_server_string_gives_the_host_port_and_request(wire, server, host, port, https, path,
                                                        host_field):
    latest, trail = reply_fix(device_id="w 1/é"), [reply_fix(device_id="w&1")]
    wire.replies += [fixed_length("Connection: close", body=json.dumps(doc).encode())
                     for doc in (latest, trail)]
    assert fetch_latest(server, "w 1/é") == latest
    assert fetch_history(server, "w&1", 7) == trail
    assert wire.connects == [(host, port, https)] * 2
    assert wire.sent == [
        f"GET {path}{target} HTTP/1.1\r\nHost: {host_field}\r\n"
        "Accept-Encoding: identity\r\n\r\n".encode()
        for target in ("/api/locations/latest?device_id=w+1%2F%C3%A9",
                       "/api/locations?device_id=w%261&limit=7")]


@pytest.mark.parametrize("server, message", [
    ("127.0.0.1:abc", "Port "),
    ("127.0.0.1:65536", "Port out of range 0-65535"),
    ("127.0.0.1:-1", "Port "),
    ("http://:8750", "no host given"),
    ("127.0.0.1:8750/?x=1", "a server URL takes no query or fragment"),
    ("127.0.0.1:8750#top", "a server URL takes no query or fragment"),
    ("127.0.0.1:1/a b", "URL can't contain control characters"),
    pytest.param("é" * 64 + ".example:8750", "bad host name", id="64-character non-ASCII label"),
])
def test_a_bad_server_string_exits_2_before_any_socket(monkeypatch, capsys, server, message):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_connection", no_socket)
    for command in (["get-location"], ["track", "--limit", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["--server", server, "--device", "walker-1", *command])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("echoguide-tracker: error: argument --server: ") and message in last
    for fetch in (lambda: fetch_latest(server, "walker-1"),
                  lambda: fetch_history(server, "walker-1", 3)):
        with pytest.raises(ServerUnreachable, match=re.escape(message)):
            fetch()


@pytest.mark.parametrize("server, reason", [
    ("127.0.0.1:99999", "Port out of range 0-65535: '99999'"),
    ("localhost:abc", "Port is not a number: 'abc'"),
    ("ftp://x", "scheme must be http or https, not 'ftp'"),
    ("http://", "no host given"),
])
def test_a_bad_server_string_is_refused_naming_the_setting_before_any_lookup(
        monkeypatch, capsys, server, reason):
    calls = []
    for name in ("getaddrinfo", "create_connection"):
        monkeypatch.setattr(socket, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(SystemExit) as excinfo:
        main(["--server", server, "--device", "walker-1", "get-location"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"echoguide-tracker: error: argument --server: {reason}")
    assert calls == []


@pytest.mark.parametrize("server", ["127.0.0.1:1/a b", "127.0.0.1:1/a\x7fb"])
def test_a_url_with_a_space_or_control_character_is_not_sent(server):
    with pytest.raises(ServerUnreachable, match="control characters"):
        fetch_latest(server, "walker-1")


# -- HTTPS ------------------------------------------------------------------------------


@pytest.fixture
def tls_stub(tmp_path):
    """A server on localhost that answers one fix to each connection over
    TLS, with a self-signed certificate for localhost at tmp_path/cert.pem."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("openssl is not installed")
    subprocess.run([openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "2",
                    "-keyout", str(tmp_path / "key.pem"), "-out", str(tmp_path / "cert.pem"),
                    "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost"],
                   check=True, capture_output=True, timeout=60)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(tmp_path / "cert.pem", tmp_path / "key.pem")
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stopping = threading.Event()

    def serve():
        while not stopping.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(5.0)
            try:
                with context.wrap_socket(conn, server_side=True) as tls:
                    head = b""
                    while b"\r\n\r\n" not in head and (data := tls.recv(65536)):
                        head += data
                    tls.sendall(fixed_length("Connection: close"))
            except OSError:  # the client refused the certificate
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"https://localhost:{listener.getsockname()[1]}", tmp_path / "cert.pem"
    stopping.set()
    thread.join()
    listener.close()


def test_https_verifies_the_certificate_against_the_trusted_cas(tls_stub):
    server, cert = tls_stub
    env = {key: value for key, value in os.environ.items()
           if key not in ("SSL_CERT_FILE", "SSL_CERT_DIR")}
    command = [sys.executable, "-m", "echoguide.tracker", "--server", server,
               "--device", "walker-1", "get-location"]
    untrusted = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert untrusted.returncode == EXIT_UNREACHABLE
    assert untrusted.stdout == ""
    assert untrusted.stderr.startswith("server unreachable: ")
    assert "CERTIFICATE_VERIFY_FAILED" in untrusted.stderr
    trusted = subprocess.run(command, env={**env, "SSL_CERT_FILE": str(cert)},
                             capture_output=True, text=True, timeout=60)
    assert (trusted.returncode, trusted.stdout, trusted.stderr) == (EXIT_OK, FIX_LINE, "")


# -- start-up ---------------------------------------------------------------------------


def test_importing_the_tracker_loads_no_http_client_email_parser_or_ssl():
    code = ("import sys, echoguide.tracker; print([m for m in sys.modules if m in "
            "('http.client', 'ssl', 'traceback', 'email') or m.startswith('email.')])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


# -- the memo of checked replies -------------------------------------------------------


def post(server, fix) -> dict:
    """POST a fix to the live server; the stored record as it answers."""
    status, record = http_post(f"http://{server}", "/api/locations", fix)
    assert status == 201
    return record


def test_a_changed_result_does_not_change_the_next_fetch(live_tracking):
    store, server = live_tracking
    store.insert(fix_dict(minute=5))
    store.insert(fix_dict(minute=10, lat=23.0))
    fix, trail = fetch_latest(server, "walker-1"), fetch_history(server, "walker-1", 5)
    expected = copy.deepcopy((fix, trail))
    fix["latitude"] = 0.0
    trail[0]["latitude"] = 0.0
    trail.append(fix)
    again = fetch_latest(server, "walker-1"), fetch_history(server, "walker-1", 5)
    assert again == expected
    assert again[0] is not fix and again[1] is not trail and again[1][1] is not trail[1]


def test_a_post_between_two_fetches_gives_the_new_fix(live_tracking):
    _, server = live_tracking
    first = post(server, fix_dict(minute=5))
    assert fetch_latest(server, "walker-1") == first
    assert fetch_history(server, "walker-1", 3) == [first]
    second = post(server, fix_dict(minute=10, lat=23.0))
    assert fetch_latest(server, "walker-1") == second
    assert fetch_history(server, "walker-1", 3) == [first, second]


def test_the_memo_keeps_at_most_its_cap_least_recently_read_dropped_first():
    tracker._check.cache_clear()
    assert tracker._check.cache_info().maxsize == tracker._MEMO_CAP == 256
    bodies = [json.dumps(reply_fix(id=i)).encode() for i in range(1, tracker._MEMO_CAP + 2)]
    for body in bodies:
        assert tracker._read(body, "walker-1", None)["id"] == json.loads(body)["id"]
        assert tracker._check.cache_info().currsize <= tracker._MEMO_CAP
    tracker._read(bodies[-1], "walker-1", None)
    assert tracker._check.cache_info()[:2] == (1, len(bodies))  # (hits, misses)
    tracker._read(bodies[0], "walker-1", None)  # dropped when the last one came in
    assert tracker._check.cache_info()[:2] == (1, len(bodies) + 1)


def test_the_memo_keeps_no_refused_reply_and_no_long_one():
    tracker._check.cache_clear()
    for body, device_id in ((b"not json", "walker-1"),
                            (json.dumps(reply_fix()).encode(), "walker-2")):
        for _ in range(2):
            with pytest.raises(BadReply):
                tracker._read(body, device_id, None)
    trail = [reply_fix(id=i) for i in range(1, 200)]
    body = json.dumps(trail).encode()
    assert len(body) > tracker._MEMO_BODY_MAX
    assert tracker._read(body, "walker-1", 200) == trail
    assert tracker._read(body, "walker-1", 200) == trail
    assert tracker._check.cache_info()[:4] == (0, 4, 256, 0)  # (hits, misses, maxsize, currsize)
    # A trail padded with JSON whitespace to the limit is kept; one byte more is not.
    trail = trail[:100]
    at_max = json.dumps(trail).encode().ljust(tracker._MEMO_BODY_MAX)
    assert len(at_max) == tracker._MEMO_BODY_MAX
    for body, info in ((at_max + b" ", (0, 4, 256, 0)), (at_max, (1, 5, 256, 1))):
        assert tracker._read(body, "walker-1", 100) == trail
        assert tracker._read(body, "walker-1", 100) == trail
        assert tracker._check.cache_info()[:4] == info


def test_threads_fetching_while_posts_land_each_get_a_correct_answer(live_tracking):
    """4 threads fetch the latest fix and a 3-fix trail while fixes are posted
    in time order.  Each answer is made of stored records and is no older
    than the newest acknowledged before the fetch began; scribbling on it
    changes no other thread's answer."""
    _, server = live_tracking
    count = 60
    acked: list[dict] = []
    finished = threading.Event()
    errors: list[str] = []

    def posted(k: int) -> dict:
        return {**fix_dict(lat=k / 1000), "timestamp": at_second(k)}

    def record(k: int) -> dict:  # as stored: ids run from 1
        return {**posted(k), "id": k + 1}

    def poster():
        try:
            for k in range(count):
                acked.append(post(server, posted(k)))
        finally:
            finished.set()

    def fetcher():
        try:
            while True:
                done = finished.is_set()
                before = len(acked)
                if before:
                    fix = fetch_latest(server, "walker-1")
                    trail = fetch_history(server, "walker-1", 3)
                    newest = fix["id"] - 1  # at most one POST is in flight
                    if not (before - 1 <= newest <= len(acked) and fix == record(newest)):
                        errors.append(f"latest {fix} after {before} acknowledged")
                    last = trail[-1]["id"] - 1
                    if not (before - 1 <= last <= len(acked) and
                            trail == [record(k) for k in range(max(0, last - 2), last + 1)]):
                        errors.append(f"trail {trail} after {before} acknowledged")
                    fix["latitude"] = -1.0
                    trail[-1]["latitude"] = -1.0
                    trail.clear()
                if done:
                    return
        except Exception as exc:  # surfaces in the errors assertion below
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=poster)] + \
            [threading.Thread(target=fetcher) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert acked == [record(k) for k in range(count)]


@pytest.mark.parametrize("seed", range(3))
def test_fetches_are_the_reference_answer_and_a_fresh_read_of_their_bytes(monkeypatch, seed):
    """A seeded mix of POSTs (in order, tied with a device's newest, out of
    order) and latest/history fetches over kept-alive connections: each
    fetch gives the reference store's answer, equal to what a fresh read of
    the reply's bytes gives, whether or not it came from the memo."""
    bodies = []
    get_reply = tracker._get_reply

    def spy_get_reply(*args):
        reply = get_reply(*args)
        bodies.append(reply[2])
        return reply

    monkeypatch.setattr(tracker, "_get_reply", spy_get_reply)
    tracker._check.cache_clear()
    rng = random.Random(seed)
    devices = ("walker-1", "walker-2", "walker-3")
    newest = dict.fromkeys(devices, 600)
    records, kinds, reads = [], set(), 0
    with in_process_server(TrackStore()) as httpd:
        accepted = count_connections(httpd)
        server = f"127.0.0.1:{httpd.server_address[1]}"
        conn = http.client.HTTPConnection(server, timeout=5)
        for _ in range(400):
            device = rng.choice(devices)
            if rng.random() < 0.3:
                kind = rng.choice(("in order", "tied", "out of order"))
                if kind == "in order":
                    newest[device] += rng.randint(1, 90)
                second = newest[device] - (rng.randint(1, 120) if kind == "out of order" else 0)
                kinds.add(kind)
                fix = {**fix_dict(device=device, lat=round(rng.uniform(-89, 89), 6)),
                       "timestamp": at_second(second)}
                conn.request("POST", "/api/locations", json.dumps(fix),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 201
                records.append(FixRecord(**json.loads(response.read())))
                continue
            device = rng.choice(devices + ("nobody",))
            limit = rng.choice((None, 1, 3, 50))
            if limit is None:
                expected = reference_store.latest_fix(records, device)
                if expected is None:
                    with pytest.raises(NoFix):
                        fetch_latest(server, device)
                    continue
                got, rule, expected = fetch_latest(server, device), RECORD, expected.as_dict()
            else:
                got, rule = fetch_history(server, device, limit), list_rule(RECORD)
                expected = [r.as_dict() for r in reference_store.history(records, device, limit)]
            reads += 1
            assert got == expected == read_json(json.loads(bodies[-1]), rule, BadReply, "reply")
        assert len(accepted) == 2  # one connection for the POSTs, one for the fetches
        conn.close()
    assert kinds == {"in order", "tied", "out of order"}
    assert 0 < tracker._check.cache_info().hits < reads  # some replies came from the memo
