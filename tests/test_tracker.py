"""Tracker CLI: output formatting units plus end-to-end runs of main()
against a live tracking server."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from echoguide import tracker
from echoguide.server import TrackService, TrackStore, make_http_server
from echoguide.tracker import (
    EXIT_NO_FIX,
    EXIT_OK,
    EXIT_UNREACHABLE,
    ServerUnreachable,
    fetch_latest,
    fix_line,
    format_coord,
    main,
    map_url,
    point_feature,
    track_feature,
)

from conftest import free_port


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


class Serving:
    """A tracking server on `port` over the store at `path`, in a thread."""

    def __init__(self, path, port, handler_timeout=None):
        self.store = TrackStore(path)
        self.service = TrackService(self.store)
        self.httpd = make_http_server(f"127.0.0.1:{port}", self.service)
        if handler_timeout is not None:
            self.httpd.RequestHandlerClass.timeout = handler_timeout
        self.accepted = count_connections(self.httpd)
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5.0)
        self.store.close()


@pytest.fixture
def live_tracking(tmp_path):
    port = free_port()
    serving = Serving(tmp_path / "locations.jsonl", port)
    yield serving.service, f"127.0.0.1:{port}"
    serving.stop()


def test_get_location_prints_latest_line(live_tracking, capsys):
    service, server = live_tracking
    service.insert_fix(fix_dict(minute=5))
    service.insert_fix(fix_dict(minute=10, lat=23.0, lon=90.0, provider="network"))
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
    service, server = live_tracking
    service.insert_fix(fix_dict())
    out_path = tmp_path / "point.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "show-map", "--out", str(out_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "https://www.google.com/maps?q=22.9006,89.5024"
    doc = json.loads(out_path.read_text())
    assert doc["geometry"] == {"type": "Point", "coordinates": [89.5024, 22.9006]}


def test_show_map_stdout_when_no_out(live_tracking, capsys):
    service, server = live_tracking
    service.insert_fix(fix_dict())
    code = main(["--server", server, "--device", "walker-1", "show-map"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # GeoJSON first, maps URL as the final line.
    body, last = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(body)["type"] == "Feature"
    assert last.startswith("https://www.google.com/maps?q=")


def test_track_writes_linestring(live_tracking, capsys, tmp_path):
    service, server = live_tracking
    for minute, lat in ((5, 22.0), (10, 22.5), (15, 23.0)):
        service.insert_fix(fix_dict(minute=minute, lat=lat))
    out_path = tmp_path / "trail.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "track", "--out", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["geometry"]["type"] == "LineString"
    assert doc["properties"]["count"] == 3


def test_track_limit_truncates_to_most_recent(live_tracking, tmp_path):
    service, server = live_tracking
    for minute in (5, 10, 15, 20):
        service.insert_fix(fix_dict(minute=minute, lat=20.0 + minute))
    out_path = tmp_path / "trail.geojson"
    code = main(["--server", server, "--device", "walker-1",
                 "track", "--limit", "2", "--out", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["properties"]["count"] == 2
    assert doc["properties"]["start_timestamp"] == "2015-06-01T00:15:00Z"


def test_track_empty_history_exits_3(live_tracking, capsys):
    _, server = live_tracking
    code = main(["--server", server, "--device", "walker-1", "track"])
    assert code == EXIT_NO_FIX
    assert "no fixes" in capsys.readouterr().err


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


def test_fetches_on_one_thread_share_one_connection(tmp_path):
    port = free_port()
    serving = Serving(tmp_path / "locations.jsonl", port)
    try:
        serving.service.insert_fix(fix_dict())
        for _ in range(3):
            assert fetch_latest(f"127.0.0.1:{port}", "walker-1")["latitude"] == 22.9006
        assert len(serving.accepted) == 1
    finally:
        serving.stop()


def test_connection_the_server_dropped_while_idle_is_retried_once(tmp_path):
    port = free_port()
    serving = Serving(tmp_path / "locations.jsonl", port, handler_timeout=0.2)
    try:
        serving.service.insert_fix(fix_dict())
        fetch_latest(f"127.0.0.1:{port}", "walker-1")
        time.sleep(0.8)  # the handler gives up on the idle connection and closes it
        assert fetch_latest(f"127.0.0.1:{port}", "walker-1")["latitude"] == 22.9006
        assert len(serving.accepted) == 2
    finally:
        serving.stop()


def test_server_restarted_on_the_same_port_answers_the_next_fetch(tmp_path):
    port = free_port()
    old = Serving(tmp_path / "old.jsonl", port)
    old.service.insert_fix(fix_dict(lat=10.0))
    assert fetch_latest(f"127.0.0.1:{port}", "walker-1")["latitude"] == 10.0
    old.stop()
    new = Serving(tmp_path / "new.jsonl", port)
    try:
        new.service.insert_fix(fix_dict(lat=20.0))
        assert fetch_latest(f"127.0.0.1:{port}", "walker-1")["latitude"] == 20.0
    finally:
        new.stop()


def test_idle_connection_to_a_stopped_server_is_still_exit_2(tmp_path, capsys):
    port = free_port()
    serving = Serving(tmp_path / "locations.jsonl", port)
    serving.service.insert_fix(fix_dict())
    fetch_latest(f"127.0.0.1:{port}", "walker-1")
    serving.stop()  # nothing listens on the port now; the retry is refused
    code = main(["--server", f"127.0.0.1:{port}", "--device", "walker-1", "get-location"])
    assert code == EXIT_UNREACHABLE
    assert capsys.readouterr().err.startswith("server unreachable: ")


# -- CLI against a stub server whose replies are malformed ------------------------------


class StubHandler(BaseHTTPRequestHandler):
    """Answers every GET with 200 and the server's `reply`: JSON, or bytes as
    they are.  With the server's `close` set, each reply says Connection:
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
        self.send_response(200)
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
], ids=["latitude a string", "provider missing", "id missing", "latest a list",
        "longitude out of range", "timestamp not an instant", "device_id a number",
        "latitude a bool", "unknown field", "history an object"])
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
