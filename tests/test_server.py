"""Track server: record validation, JSONL persistence, query semantics,
and the HTTP endpoints (in-process and as a real subprocess)."""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import select
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack
from http import HTTPStatus

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import reference_store

from echoguide import httploop
from echoguide.httploop import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    REQUEST_TIMEOUT_S,
    Connection,
    LoopServer,
)
from echoguide.server import (
    DEFAULT_HISTORY_LIMIT,
    ENV_LISTEN,
    ENV_STORE,
    FixRecord,
    FixValidationError,
    StorageError,
    TrackStore,
    main as server_main,
    validate_fix,
)

from conftest import (
    at_second,
    free_port,
    http_get,
    http_post,
    in_process_server,
    serve_store,
    stored_records,
    wait_for_server,
)


def good_fix(**overrides):
    fix = {
        "device_id": "walker-1",
        "latitude": 22.9006,
        "longitude": 89.5024,
        "timestamp": "2015-06-01T00:05:00Z",
        "provider": "gps",
    }
    fix.update(overrides)
    return fix


# -- validation ------------------------------------------------------------------


def test_validate_accepts_good_fix():
    validate_fix(good_fix())
    validate_fix(good_fix(provider="network"))
    validate_fix(good_fix(latitude=-90.0, longitude=180.0))


@pytest.mark.parametrize("field", ["device_id", "latitude", "longitude", "timestamp", "provider"])
def test_validate_names_missing_field(field):
    fix = good_fix()
    del fix[field]
    with pytest.raises(FixValidationError) as excinfo:
        validate_fix(fix)
    assert excinfo.value.field == field


@pytest.mark.parametrize("field,value", [
    ("device_id", ""),
    ("device_id", 7),
    ("latitude", "22.9"),
    ("latitude", 90.5),
    ("latitude", -91),
    ("latitude", True),
    ("longitude", 180.1),
    ("longitude", None),
    ("timestamp", "2015-06-01 00:05:00"),
    ("timestamp", "2015-06-01T00:05:00"),
    ("timestamp", "2015-06-01Z"),
    ("timestamp", 1433116800),
    ("provider", "wifi"),
    ("provider", "GPS"),
])
def test_validate_rejects_bad_values(field, value):
    with pytest.raises(FixValidationError) as excinfo:
        validate_fix(good_fix(**{field: value}))
    assert excinfo.value.field == field


def test_validate_rejects_unknown_fields():
    with pytest.raises(FixValidationError) as excinfo:
        validate_fix(good_fix(altitude=12.0))
    assert excinfo.value.field == "altitude"


def test_validate_requires_object():
    with pytest.raises(FixValidationError):
        validate_fix(["not", "a", "fix"])


# -- store ----------------------------------------------------------------------


def test_store_assigns_sequential_ids(tmp_path):
    store = TrackStore(tmp_path / "locations.jsonl")
    first = store.insert(good_fix())
    second = store.insert(good_fix(timestamp="2015-06-01T00:10:00Z"))
    assert (first.id, second.id) == (1, 2)
    store.close()


def test_store_reloads_existing_file(tmp_path):
    path = tmp_path / "locations.jsonl"
    store = TrackStore(path)
    store.insert(good_fix())
    store.insert(good_fix(timestamp="2015-06-01T00:10:00Z"))
    store.close()

    reopened = TrackStore(path)
    third = reopened.insert(good_fix(timestamp="2015-06-01T00:15:00Z"))
    assert third.id == 3
    assert [r.id for r in reopened.recent("walker-1", 10)] == [1, 2, 3]
    reopened.close()


def test_store_rejects_corrupt_line(tmp_path):
    path = tmp_path / "locations.jsonl"
    path.write_text('{"id": 1}\nnot json at all\n')
    with pytest.raises(StorageError):
        TrackStore(path)


def test_store_writes_one_json_line_per_record(tmp_path):
    path = tmp_path / "locations.jsonl"
    store = TrackStore(path)
    store.insert(good_fix())
    store.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["id"] == 1 and row["device_id"] == "walker-1"


def test_record_dict_is_asdict_in_field_order():
    """Replies and stored lines dump this dict, so their bytes stay as asdict made them."""
    record = FixRecord(7, "walker-1", -0.0, 1e-05, "2015-06-01T00:00:00Z", "network")
    assert list(record.as_dict().items()) == list(dataclasses.asdict(record).items())


def test_store_inserts_are_thread_safe(tmp_path):
    store = TrackStore(tmp_path / "locations.jsonl")

    def hammer():
        for _ in range(50):
            store.insert(good_fix())

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(r.id for r in store.recent("walker-1", 1000)) == list(range(1, 201))
    store.close()


# -- query semantics -------------------------------------------------------------


def store_of(*rows) -> TrackStore:
    """A store with no file, holding rows."""
    store = TrackStore()
    for row in rows:
        store.insert(row)
    return store


def test_latest_picks_newest_timestamp():
    store = store_of(good_fix(timestamp="2015-06-01T00:10:00Z"),
                     good_fix(timestamp="2015-06-01T00:05:00Z"))
    assert store.recent("walker-1", 1)[0].timestamp == "2015-06-01T00:10:00Z"


def test_latest_tie_breaks_on_higher_id():
    [latest] = store_of(good_fix(latitude=1.0), good_fix(latitude=2.0)).recent("walker-1", 1)
    assert latest.id == 2 and latest.latitude == 2.0


def test_latest_is_per_device():
    store = store_of(good_fix(), good_fix(device_id="walker-2", latitude=3.0))
    assert store.recent("walker-2", 1)[0].latitude == 3.0
    assert store.recent("nobody", 1) == []


def test_history_ascending_and_truncated_to_last_n():
    store = store_of(*(good_fix(timestamp=f"2015-06-01T00:{m:02d}:00Z") for m in (10, 5, 20, 15)))
    full = store.recent("walker-1", DEFAULT_HISTORY_LIMIT)
    assert [r.timestamp[14:16] for r in full] == ["05", "10", "15", "20"]
    tail = store.recent("walker-1", 2)
    assert [r.timestamp[14:16] for r in tail] == ["15", "20"]


def test_history_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        store_of(good_fix()).recent("walker-1", 0)


# -- HTTP endpoints (in-process server) -------------------------------------------


def base_url(httpd) -> str:
    return f"http://127.0.0.1:{httpd.server_address[1]}"


@pytest.fixture
def live_server(tmp_path):
    with in_process_server(TrackStore(tmp_path / "locations.jsonl")) as httpd:
        yield base_url(httpd)


@pytest.fixture
def impatient_server(tmp_path):
    """live_server that gives up on a silent connection after 0.3 s."""
    with in_process_server(TrackStore(tmp_path / "locations.jsonl"), timeout_s=0.3) as httpd:
        yield base_url(httpd)


def test_post_returns_201_with_assigned_id(live_server):
    status, body = http_post(live_server, "/api/locations", good_fix())
    assert status == 201
    assert body["id"] == 1
    for key, value in good_fix().items():
        assert body[key] == value


def test_post_validation_error_is_400_with_field(live_server):
    status, body = http_post(live_server, "/api/locations", good_fix(latitude="oops"))
    assert status == 400
    assert body["field"] == "latitude"
    assert "error" in body


def test_post_date_only_timestamp_is_400(live_server):
    status, body = http_post(live_server, "/api/locations", good_fix(timestamp="2015-06-01Z"))
    assert (status, body["field"]) == (400, "timestamp")
    assert http_get(live_server, "/api/locations/latest?device_id=walker-1")[0] == 404


def test_post_malformed_json_is_400(live_server):
    status, body = http_post(live_server, "/api/locations", b"{nope")
    assert status == 400
    assert "error" in body


def raw_post(base, headers: str, body: bytes = b"", path: str = "/api/locations"):
    """POST over a bare socket; the status line must come within 2 s."""
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        sock.sendall(f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"{headers}\r\n".encode("latin-1") + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read()), response.getheader("Connection")


def test_post_content_length_of_5000_digits_is_413(live_server):
    status, body, connection = raw_post(live_server, f"Content-Length: {'9' * 5000}\r\n")
    assert (status, body["field"], connection) == (413, "Content-Length", "close")


def test_post_body_at_the_cap_is_accepted(live_server):
    payload = json.dumps(good_fix()).encode()
    payload += b" " * (MAX_BODY_BYTES - len(payload))
    status, body, _ = raw_post(live_server, f"Content-Length: {len(payload)}\r\n", payload)
    assert status == 201 and body["id"] == 1


@pytest.mark.parametrize("with_length", [True, False], ids=["with Content-Length", "alone"])
def test_post_with_transfer_encoding_is_400_unread_and_closes(live_server, with_length):
    payload = json.dumps(good_fix(device_id="te")).encode()
    if with_length:  # a body Content-Length frames, which Transfer-Encoding overrides
        headers, body = f"Transfer-Encoding: chunked\r\nContent-Length: {len(payload)}\r\n", payload
    else:
        headers, body = "Transfer-Encoding: chunked\r\n", b"%x\r\n%s\r\n0\r\n\r\n" % (
            len(payload), payload)
    status, reply, connection = raw_post(live_server, headers, body)
    assert (status, reply["field"], connection) == (400, "Transfer-Encoding", "close")
    assert http_get(live_server, "/api/locations/latest?device_id=te")[0] == 404


def test_post_to_unknown_path_is_404_and_closes(live_server):
    payload = json.dumps(good_fix()).encode()
    status, _, connection = raw_post(live_server, f"Content-Length: {len(payload)}\r\n",
                                     payload, path="/api/nope")
    assert (status, connection) == (404, "close")


def test_handler_sets_a_socket_timeout():
    with in_process_server(TrackStore()) as httpd:
        assert httpd.timeout == REQUEST_TIMEOUT_S
    assert 0 < REQUEST_TIMEOUT_S < float("inf")


def test_post_shorter_than_its_content_length_is_408(impatient_server):
    started = time.monotonic()
    status, body, connection = raw_post(impatient_server, "Content-Length: 10\r\n", b"{}")
    assert (status, body["field"], connection) == (408, "body", "close")
    assert time.monotonic() - started < 1.5
    assert http_post(impatient_server, "/api/locations", good_fix())[0] == 201


def test_silent_connection_is_closed(impatient_server):
    port = int(impatient_server.rsplit(":", 1)[1])
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        # No reply, just the end of the stream: the server closes the socket
        # once the handler has returned.
        assert sock.recv(1024) == b""
    assert time.monotonic() - started < 1.5


def trickle(socks, request: bytes, period_s: float = 0.3) -> list:
    """Send `request` on each socket a byte at a time, one byte every
    `period_s`, to each until the server has sent on it or closed it, and
    return all each one got before the server closed it."""
    waiting = {sock: 0 for sock in socks}
    while waiting:
        for sock, sent in waiting.items():
            sock.sendall(request[sent:sent + 1])
            waiting[sock] = sent + 1
            assert sent < len(request)
        answered, _, _ = select.select(list(waiting), [], [], period_s)
        for sock in answered:
            del waiting[sock]
    return [b"".join(iter(lambda: sock.recv(65536), b"")) for sock in socks]


def test_tricklers_are_answered_408_and_closed_within_the_timeout_freeing_the_cap(tmp_path):
    """Three clients at a cap of 3, each sending a head a byte every 0.3 s,
    under a 1 s timeout: while they hold the cap a fourth is refused; each
    gets its 408 and a close within 2 s, and then a fifth is served."""
    store = TrackStore(tmp_path / "locations.jsonl")
    store.insert(good_fix())
    with in_process_server(store, timeout_s=1.0, max_connections=3) as httpd:
        address = ("127.0.0.1", httpd.server_address[1])
        socks = [socket.create_connection(address, timeout=2.0) for _ in range(3)]
        try:
            with socket.create_connection(address, timeout=2.0) as fourth:
                fourth.sendall(_get())
                reply = b"".join(iter(lambda: fourth.recv(65536), b""))
            assert one_closing_reply(reply, 503)["error"].endswith("limit of 3 connections")
            started = time.monotonic()
            replies = trickle(socks, _get())
            elapsed = time.monotonic() - started
        finally:
            for sock in socks:
                sock.close()
        for reply in replies:
            assert one_closing_reply(reply, 408) == {
                "error": "request head did not arrive within 1.0 s", "field": "head"}
        assert 0.9 < elapsed < 2.0
        with socket.create_connection(address, timeout=2.0) as fifth:
            fifth.sendall(_get())
            assert read_replies(fifth, 1)[0][0] == 200


def test_a_reply_that_leaves_a_byte_at_a_time_keeps_the_deadline_its_wait_began_with(
        monkeypatch):
    """The deadline is set when a reply starts to wait for its peer and
    when it has left; the sends in between do not move it."""
    now = [100.0]
    monkeypatch.setattr(httploop, "time", type("Clock", (), {
        "monotonic": staticmethod(lambda: now[0]), "time": staticmethod(time.time)}))

    class ByteAtATime:
        def send(self, data):
            return 1

    server = LoopServer(("127.0.0.1", 0), Connection)
    server.server_close()
    server._selector = type("Selector", (), {"modify": lambda *args: None})()
    connection = Connection(server, ByteAtATime(), ("127.0.0.1", 0))
    connection.wbuf += b"abc"
    assert connection._flush() is False  # 1 byte out, 2 wait for the peer
    assert connection.deadline == 100.0 + server.timeout
    now[0] = 105.0
    connection.on_event()  # the peer has made room: 1 byte more
    assert (connection.wbuf, connection.deadline) == (b"c", 100.0 + server.timeout)
    now[0] = 107.0
    connection.on_event()  # the reply has left: the next request's time begins
    assert (connection.wbuf, connection.deadline) == (b"", 107.0 + server.timeout)


@pytest.mark.parametrize("empty_line", [b"\r\n", b"\n"])
def test_an_empty_line_before_the_request_line_closes_with_no_reply(live_server, empty_line):
    # RFC 9112 2.2 lets a server skip it; this one closes at once, as
    # http.server does, well within its 10 s timeout rather than waiting.
    port = int(live_server.rsplit(":", 1)[1])
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        sock.sendall(empty_line)
        assert sock.recv(1024) == b""
    assert time.monotonic() - started < 1.5


def test_get_latest_roundtrip(live_server):
    http_post(live_server, "/api/locations", good_fix())
    http_post(live_server, "/api/locations",
              good_fix(timestamp="2015-06-01T00:10:00Z", latitude=23.0))
    status, body = http_get(live_server, "/api/locations/latest?device_id=walker-1")
    assert status == 200
    assert body["timestamp"] == "2015-06-01T00:10:00Z"
    assert body["latitude"] == 23.0


def test_get_latest_unknown_device_is_404(live_server):
    status, body = http_get(live_server, "/api/locations/latest?device_id=ghost")
    assert status == 404
    assert "error" in body


def test_get_latest_requires_device_id(live_server):
    status, body = http_get(live_server, "/api/locations/latest")
    assert status == 400


def test_get_history_ascending_with_limit(live_server):
    for minute in (10, 5, 15):
        http_post(live_server, "/api/locations",
                  good_fix(timestamp=f"2015-06-01T00:{minute:02d}:00Z"))
    status, body = http_get(live_server, "/api/locations?device_id=walker-1")
    assert status == 200
    assert [row["timestamp"][14:16] for row in body] == ["05", "10", "15"]
    status, body = http_get(live_server, "/api/locations?device_id=walker-1&limit=2")
    assert [row["timestamp"][14:16] for row in body] == ["10", "15"]


def test_get_history_bad_limit_is_400(live_server):
    for bad in ("0", "-3", "x"):
        status, _ = http_get(live_server, f"/api/locations?device_id=w&limit={bad}")
        assert status == 400


@pytest.mark.parametrize("limit", ["%2B5", "+5", "%205", "1_0", "5%20", "%D9%A3", "%EF%BC%95"])
def test_get_history_limit_takes_ascii_digits_only(live_server, limit):
    http_post(live_server, "/api/locations", good_fix())
    status, body = http_get(live_server, f"/api/locations?device_id=walker-1&limit={limit}")
    assert (status, body["field"]) == (400, "limit")
    assert http_get(live_server, "/api/locations?device_id=walker-1&limit=05")[0] == 200


def raw_exchange(base, data: bytes) -> bytes:
    """Send `data` on one connection and return all the server sends before
    it closes the connection, which must happen within 2 s."""
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def one_closing_reply(reply: bytes, status: int):
    """The JSON body of `reply`, checked to be one response with `status`
    that closes its connection."""
    assert reply.count(b"HTTP/1.1 ") == 1, reply[:300]
    head, _, body = reply.partition(b"\r\n\r\n")
    head = head.decode("latin-1")
    assert head.startswith(f"HTTP/1.1 {status} "), head
    assert "\r\nConnection: close\r\n" in head + "\r\n"
    assert "\r\nContent-Type: application/json" in head
    return json.loads(body)


def test_unknown_path_is_404(live_server):
    status, _ = http_get(live_server, "/api/nope")
    assert status == 404


# -- the answer table ---------------------------------------------------------------
#
# Every request shape above, as raw bytes on one connection to a server that
# holds one fix of walker-1 (id 1).  A row lists the replies in order, each as
# (status, Connection, Content-Length, Allow, JSON body), and how the
# connection stands after them: "closed", or "open" and still in step.


_FIX_BODY = json.dumps(good_fix(timestamp="2015-06-01T00:10:00Z")).encode()


def _post(headers: str = "", body: bytes = _FIX_BODY, path: str = "/api/locations",
          length: bool = True) -> bytes:
    framing = f"Content-Length: {len(body)}\r\n" if length else ""
    return f"POST {path} HTTP/1.1\r\nHost: t\r\n{framing}{headers}\r\n".encode() + body


def _get(target: str = "/api/locations/latest?device_id=walker-1", headers: str = "",
         version: str = "HTTP/1.1") -> bytes:
    return f"GET {target} {version}\r\nHost: t\r\n{headers}\r\n".encode()


_FIX_1 = dict(good_fix(), id=1)
_FIX_2 = dict(good_fix(timestamp="2015-06-01T00:10:00Z"), id=2)
_CL = {"error": "Content-Length must be one non-negative integer", "field": "Content-Length"}
_TE = {"error": "Transfer-Encoding is not supported; send Content-Length",
       "field": "Transfer-Encoding"}
_TOO_BIG = {"error": f"request body exceeds {MAX_BODY_BYTES} bytes", "field": "Content-Length"}
_URI_TOO_LONG = {"error": HTTPStatus.REQUEST_URI_TOO_LONG.phrase}  # as this Python names 414
_HEAD_TOO_LARGE = {"error": "Request header fields too large"}
_HEAD_LATE = {"error": "request head did not arrive within 0.3 s", "field": "head"}


def _fields(n: int) -> str:
    """n header fields, to which _get adds its Host field."""
    return "".join(f"X-{i}: {i}\r\n" for i in range(n))


ANSWERS = [
    ("POST", _post(), [(201, None, 133, None, _FIX_2)], "open"),
    ("POST without Content-Length", _post(length=False), [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length -1", _post("Content-Length: -1\r\n", b"", length=False),
     [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length abc", _post("Content-Length: abc\r\n", b"", length=False),
     [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length empty", _post("Content-Length: \r\n", b"", length=False),
     [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length 1.5", _post("Content-Length: 1.5\r\n", b"", length=False),
     [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length +5", _post("Content-Length: +5\r\n", b"{}{}{", length=False),
     [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length 5 and 6", _post("Content-Length: 5\r\nContent-Length: 6\r\n", b"x" * 6,
                                     length=False), [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length twice alike", _post(f"Content-Length: {len(_FIX_BODY)}\r\n"),
     [(201, None, 133, None, _FIX_2)], "open"),
    ("Content-Length N, N", _post(f"Content-Length: {len(_FIX_BODY)}, {len(_FIX_BODY)}\r\n",
                                  length=False), [(201, None, 133, None, _FIX_2)], "open"),
    ("Content-Length N, M", _post(f"Content-Length: {len(_FIX_BODY)}, {len(_FIX_BODY) + 1}\r\n",
                                  length=False), [(400, "close", 87, None, _CL)], "closed"),
    ("Content-Length over the cap", _post(f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", b"",
                                          length=False), [(413, "close", 72, None, _TOO_BIG)], "closed"),
    ("Content-Length 10**12", _post(f"Content-Length: {10**12}\r\n", b"", length=False),
     [(413, "close", 72, None, _TOO_BIG)], "closed"),
    ("Content-Length of 5000 digits", _post(f"Content-Length: {'9' * 5000}\r\n", b"", length=False),
     [(413, "close", 72, None, _TOO_BIG)], "closed"),
    ("Transfer-Encoding alone", _post("Transfer-Encoding: chunked\r\n", b"2\r\n{}\r\n0\r\n\r\n",
                                      length=False), [(400, "close", 98, None, _TE)], "closed"),
    ("Transfer-Encoding with Content-Length", _post("Transfer-Encoding: chunked\r\n"),
     [(400, "close", 98, None, _TE)], "closed"),
    ("GET with a Content-Length body", _get(headers="Content-Length: 5\r\n") + b"hello" + _get(),
     [(200, "close", 133, None, _FIX_1)], "closed"),
    ("GET with Transfer-Encoding", _get(headers="Transfer-Encoding: chunked\r\n") + b"0\r\n\r\n",
     [(200, "close", 133, None, _FIX_1)], "closed"),
    ("GET with Content-Length 0", _get(headers="Content-Length: 0\r\n"),
     [(200, None, 133, None, _FIX_1)], "open"),
    ("GET with Content-Length 0, 0", _get(headers="Content-Length: 0, 0\r\n"),
     [(200, None, 133, None, _FIX_1)], "open"),
    ("HTTP/1.0", _get(version="HTTP/1.0"), [(200, "close", 133, None, _FIX_1)], "closed"),
    ("HTTP/1.0 keep-alive", _get(version="HTTP/1.0", headers="Connection: keep-alive\r\n"),
     [(200, None, 133, None, _FIX_1)], "open"),
    ("Connection: close", _get(headers="Connection: close\r\n"),
     [(200, "close", 133, None, _FIX_1)], "closed"),
    ("garbage", b"garbage\r\n",
     [(400, "close", 43, None, {"error": "Bad request syntax ('garbage')"})], "closed"),
    ("65,537-byte URI", b"GET /" + b"a" * 65_532,
     [(414, "close", len(json.dumps(_URI_TOO_LONG)), None, _URI_TOO_LONG)], "closed"),
    ("65,536-byte head without a line end", b"GET /" + b"a" * (MAX_HEAD_BYTES - 5),
     [(414, "close", len(json.dumps(_URI_TOO_LONG)), None, _URI_TOO_LONG)], "closed"),
    ("HTTP/9.9", b"GET /api/locations HTTP/9.9\r\n\r\n",
     [(505, "close", 39, None, {"error": "Invalid HTTP version (9.9)"})], "closed"),
    ("HTTP/2.0", _get(version="HTTP/2.0"),
     [(505, "close", 39, None, {"error": "Invalid HTTP version (2.0)"})], "closed"),
    ("10-digit version part", _get(version="HTTP/1.0000000001"),
     [(200, None, 133, None, _FIX_1)], "open"),
    ("11-digit version part", _get(version="HTTP/1.00000000001"),
     [(400, "close", 55, None, {"error": "Bad request version ('HTTP/1.00000000001')"})],
     "closed"),
    ("HTTP/1", _get(version="HTTP/1"),
     [(400, "close", 43, None, {"error": "Bad request version ('HTTP/1')"})], "closed"),
    ("HTTP/0.9", b"GET /api/locations/latest?device_id=walker-1\r\n\r\n",
     [(400, "close", 80, None,
       {"error": "Bad request syntax ('GET /api/locations/latest?device_id=walker-1')"})],
     "closed"),
    ("header line without a colon", _get(headers="no colon here\r\n"),
     [(400, "close", 46, None, {"error": "Bad header line ('no colon here')"})], "closed"),
    ("obs-fold", _get(headers="X-Folded: a\r\n b\r\n"),  # RFC 9112 section 5.2
     [(400, "close", 35, None, {"error": "Bad header line (' b')"})], "closed"),
    ("space before the colon", _get(headers="X-Space : a\r\n"),  # RFC 9112 section 5.1
     [(400, "close", 44, None, {"error": "Bad header line ('X-Space : a')"})], "closed"),
    ("FOO", b"FOO /api/locations HTTP/1.1\r\nHost: t\r\n\r\n",
     [(501, "close", 39, None, {"error": "Unsupported method ('FOO')"})], "closed"),
    *[(method, _post().replace(b"POST", method.encode(), 1),
       [(405, "close", 35 + len(method), "GET, POST",
         b"" if method == "HEAD" else {"error": f"method {method} is not allowed"})], "closed")
      for method in ("PUT", "DELETE", "PATCH", "HEAD", "OPTIONS", "TRACE", "CONNECT")],
    ("Expect: 100-continue", _post("Expect: 100-continue\r\n"),
     [(100, None, None, None, b""), (201, None, 133, None, _FIX_2)], "open"),
    ("short body", _post("Content-Length: 10\r\n", b"{}", length=False),
     [(408, "close", 70, None, {"error": "request body did not arrive within 0.3 s",
                                "field": "body"})], "closed"),
    ("request line cut short", _get()[:20], [(408, "close", 70, None, _HEAD_LATE)], "closed"),
    ("head cut short", _get()[:-2], [(408, "close", 70, None, _HEAD_LATE)], "closed"),
    ("POST head cut short", _post()[:-len(_FIX_BODY) - 2],
     [(408, "close", 70, None, _HEAD_LATE)], "closed"),
    ("pipelined GET, POST, GET", _get() + _post() + _get(),
     [(200, None, 133, None, _FIX_1), (201, None, 133, None, _FIX_2),
      (200, None, 133, None, _FIX_2)], "open"),
    ("99 header fields", _get(headers=_fields(98)), [(200, None, 133, None, _FIX_1)], "open"),
    ("100 header fields", _get(headers=_fields(99)),
     [(431, "close", 29, None, {"error": "Too many headers"})], "closed"),
    ("65,537-byte header line", _get(headers="X: " + "a" * 65_532 + "\r\n"),
     [(431, "close", 44, None, _HEAD_TOO_LARGE)], "closed"),
    ("seven 10,000-byte header fields",
     _get(headers="".join(f"X-{i}: {'a' * 10_000}\r\n" for i in range(7))),
     [(431, "close", 44, None, _HEAD_TOO_LARGE)], "closed"),
    ("body not JSON", _post(body=b"{nope"),
     [(400, None, 60, None, {"error": "request body is not valid JSON", "field": "body"})], "open"),
    ("POST to an unknown path", _post(path="/api/nope"),
     [(404, "close", 29, None, {"error": "no such resource"})], "closed"),
    ("POST without Content-Length to an unknown path", _post(path="/api/nope", length=False),
     [(400, "close", 87, None, _CL)], "closed"),
    ("GET an unknown path", _get("/api/nope"),
     [(404, None, 29, None, {"error": "no such resource"})], "open"),
    ("GET an unknown path over HTTP/1.0", _get("/api/nope", version="HTTP/1.0"),
     [(404, "close", 29, None, {"error": "no such resource"})], "closed"),
    ("GET an unknown path with Connection: close", _get("/api/nope", headers="Connection: close\r\n"),
     [(404, "close", 29, None, {"error": "no such resource"})], "closed"),
    ("GET without device_id", _get("/api/locations/latest"),
     [(400, None, 74, None, {"error": "query parameter 'device_id' is required",
                             "field": "device_id"})], "open"),
    ("GET an unknown device", _get("/api/locations/latest?device_id=ghost"),
     [(404, None, 47, None, {"error": "no fix recorded for device 'ghost'"})], "open"),
    ("GET history", _get("/api/locations?device_id=walker-1&limit=5"),
     [(200, None, 135, None, [_FIX_1])], "open"),
    ("blank line", b"\r\n", [], "closed"),
]


def read_replies(sock, count=None, head: bool = False) -> list:
    """The next `count` replies on sock, or (count None) every reply until
    the server closes it, each as (status, Connection, Content-Length,
    Allow, body).  The body is decoded JSON, or b"" when the reply has none
    (a 100 Continue, or the reply to a HEAD); every reply but a 100 Continue
    says it is JSON."""
    buf, replies = b"", []
    while count is None or len(replies) < count:
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            if not (chunk or buf or count):
                return replies
            assert chunk, (replies, buf)
            buf += chunk
        top, _, buf = buf.partition(b"\r\n\r\n")
        status_line, *lines = top.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", 0))
        status = int(status_line.split()[1])
        if status != 100:
            assert headers["Content-Type"] == "application/json; charset=utf-8", headers
        size = 0 if head or status == 100 else length
        while len(buf) < size:
            buf += sock.recv(65536)
        body, buf = buf[:size], buf[size:]
        replies.append((status, headers.get("Connection"),
                        headers.get("Content-Length") and length, headers.get("Allow"),
                        json.loads(body) if body else body))
    assert buf == b""
    return replies


@pytest.fixture(scope="module")
def answer_server():
    """One server for every answer-table exchange, which gives up on a
    request after 0.3 s; each exchange sets its own store."""
    with in_process_server(TrackStore(), timeout_s=0.3) as httpd:
        yield httpd


def fresh_store(httpd) -> None:
    """Serve a new store holding one fix of walker-1 (id 1) from now on."""
    serve_store(httpd, store_of(good_fix()))


def serves_on(sock) -> None:
    """A request on sock is read and answered."""
    sock.sendall(_get("/api/nope"))
    assert read_replies(sock, 1) == [(404, None, 29, None, {"error": "no such resource"})]


def answer(httpd, pieces: list, replies, then) -> None:
    """Send `pieces` on one connection to a fresh store, a moment apart so
    that each arrives in a read of its own, and check the replies and how
    the connection stands after them; after one that closed, the server
    still answers on a new connection."""
    fresh_store(httpd)
    address = ("127.0.0.1", httpd.server_address[1])
    with socket.create_connection(address, timeout=2.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i, piece in enumerate(pieces):
            if i:
                time.sleep(0.002)
            try:
                sock.sendall(piece)
            except (BrokenPipeError, ConnectionResetError):  # refused before the rest came
                break
        head = b"".join(pieces).startswith(b"HEAD ")
        assert read_replies(sock, len(replies), head) == replies
        if then == "open":  # the next request is read from where the last one ended
            serves_on(sock)
            return
        assert sock.recv(65536) == b""
    with socket.create_connection(address, timeout=2.0) as sock:
        serves_on(sock)


@pytest.mark.parametrize("request_bytes, replies, then",
                         [row[1:] for row in ANSWERS], ids=[row[0] for row in ANSWERS])
def test_the_answer_table(answer_server, request_bytes, replies, then):
    answer(answer_server, [request_bytes], replies, then)


@pytest.mark.parametrize("request_bytes, replies, then",
                         [row[1:] for row in ANSWERS], ids=[row[0] for row in ANSWERS])
@settings(max_examples=2)
@given(cuts=st.data())
def test_an_answer_is_the_same_when_its_request_comes_in_pieces(answer_server, request_bytes,
                                                                replies, then, cuts):
    ends = cuts.draw(st.lists(st.integers(1, max(1, len(request_bytes) - 1)), min_size=1,
                              max_size=3, unique=True).map(sorted), label="cuts")
    bounds = [0, *ends, len(request_bytes)]
    pieces = [request_bytes[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    answer(answer_server, pieces, replies, then)


# Bytes that make a head go wrong in many ways, and a few that keep it whole.
_HOSTILE = st.sampled_from([b"\r", b"\n", b"\r\n", b"\r\n\r\n", b":", b" ", b"\t", b",",
                            b"\x00", b"\xff", b"0", b"9" * 20, b"-", b"/", b"HTTP/", b"HTTP/1.1",
                            b"Content-Length: ", b"Content-Length: 2, 3\r\n",
                            b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
                            b"Expect: 100-continue\r\n", b"a" * 70_000]) | st.binary(max_size=4)
_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                            st.integers(0, 1000), st.integers(1, 8), _HOSTILE),
                  min_size=1, max_size=4)


@settings(max_examples=60)
@given(request=st.sampled_from([_get(), _post(), _post("Expect: 100-continue\r\n"),
                                _get("/api/locations?device_id=walker-1&limit=5",
                                     headers="Connection: keep-alive\r\n", version="HTTP/1.0")]),
       edits=_EDITS)
def test_a_mutated_head_gets_json_replies_but_no_500_and_the_server_serves_on(
        answer_server, request, edits):
    head_end = request.index(b"\r\n\r\n") + 4
    head, body = bytearray(request[:head_end]), request[head_end:]
    for kind, at, width, data in edits:
        at %= len(head) + 1
        if kind == "insert":
            head[at:at] = data
        elif kind == "delete":
            del head[at:at + width]
        else:
            head[at:at + len(data)] = data
    fresh_store(answer_server)
    failures = []
    answer_server.report_error = failures.append
    try:
        address = ("127.0.0.1", answer_server.server_address[1])
        with socket.create_connection(address, timeout=2.0) as sock:
            try:
                sock.sendall(bytes(head) + body)
                sock.shutdown(socket.SHUT_WR)  # so a request left unfinished is not waited for
            except (BrokenPipeError, ConnectionResetError):  # refused before it was all sent
                pass
            replies = read_replies(sock, head=head.startswith(b"HEAD "))  # a hang times out
        event(f"replies {[reply[0] for reply in replies]}")
        for status, _, _, _, reply in replies:
            assert status != 500 and (status < 400 or isinstance(reply["error"], str)), reply
        with socket.create_connection(address, timeout=2.0) as sock:
            sock.sendall(_get())
            assert read_replies(sock, 1)[0][0] == 200
    finally:
        del answer_server.report_error
    assert failures == []


def test_allow_names_the_routes_the_handler_defines():
    class OnlyGet(Connection):
        def do_GET(self) -> None:
            self._reply(200, {})

    server = LoopServer(("127.0.0.1", 0), OnlyGet)
    server.server_close()
    assert server.allow == b"Allow: GET\r\n"


# -- kept-alive connections ----------------------------------------------------------


def test_kept_alive_gets_do_not_wait_for_delayed_acks(live_server):
    http_post(live_server, "/api/locations", good_fix())
    connection = http.client.HTTPConnection(live_server[len("http://"):], timeout=5)
    try:
        started = time.monotonic()
        for _ in range(50):  # at a 40 ms delayed-ACK stall each, these would take 2 s
            connection.request("GET", "/api/locations/latest?device_id=walker-1")
            response = connection.getresponse()
            assert (response.status, json.loads(response.read())["id"]) == (200, 1)
        elapsed = time.monotonic() - started
    finally:
        connection.close()
    assert elapsed < 0.5


def test_server_close_ends_kept_alive_connections(tmp_path):
    before = set(threading.enumerate())
    with in_process_server(TrackStore(tmp_path / "locations.jsonl")) as httpd:
        base = base_url(httpd)
        connection = http.client.HTTPConnection(base[len("http://"):], timeout=5)
        connection.request("GET", "/api/locations/latest?device_id=walker-1")
        assert connection.getresponse().read()  # the 404, on a connection kept open
        started = time.monotonic()
    closing_s = time.monotonic() - started
    try:
        assert connection.sock.recv(1) == b""  # the server ended the connection
    finally:
        connection.close()
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:  # the serving thread
        thread.join(timeout=1.0)
    assert [thread for thread in started if thread.is_alive()] == []
    assert closing_s < 1.0


def test_a_client_reset_mid_request_prints_nothing(tmp_path, capsys):
    with in_process_server(TrackStore(tmp_path / "locations.jsonl")) as httpd:
        base = base_url(httpd)
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
            sock.sendall(b"GET /api/locations/latest?device_id=walker-1 HTTP/1.1\r\nHost: 12")
            # Closing with a zero linger time resets the connection.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert http_get(base, "/api/locations/latest?device_id=walker-1")[0] == 404
    assert capsys.readouterr().err == ""


def test_other_handler_failures_are_still_reported(tmp_path, capsys):
    """A route that raises is answered 500 and its connection closed; the
    traceback goes to stderr, and the server serves on."""
    store = TrackStore(tmp_path / "locations.jsonl")
    store.insert(good_fix())
    recent = store.recent

    def latest_broken(device_id, limit):
        if limit == 1:
            raise ValueError("a handler bug")
        return recent(device_id, limit)

    store.recent = latest_broken
    with in_process_server(store) as httpd:
        base = base_url(httpd)
        reply = raw_exchange(base, _get())
        assert one_closing_reply(reply, 500) == {"error": "internal server error"}
        assert http_get(base, "/api/locations?device_id=walker-1")[0] == 200
    err = capsys.readouterr().err
    assert "Exception occurred during processing of request from ('127.0.0.1', " in err
    assert "ValueError: a handler bug" in err


def test_connections_over_the_cap_are_answered_503_and_closed(tmp_path):
    store = TrackStore(tmp_path / "locations.jsonl")
    store.insert(good_fix())
    with in_process_server(store, max_connections=2) as httpd:
        address = ("127.0.0.1", httpd.server_address[1])
        first, second = (socket.create_connection(address, timeout=2.0) for _ in range(2))
        with first, second:
            for sock in (first, second):  # each registered and kept alive
                sock.sendall(_get())
                assert read_replies(sock, 1)[0][0] == 200
            with socket.create_connection(address, timeout=2.0) as third:
                third.sendall(_get())
                reply = b"".join(iter(lambda: third.recv(65536), b""))
            body = one_closing_reply(reply, 503)
            assert body == {"error": "the server is at its limit of 2 connections"}
            assert b"\r\nRetry-After: 1\r\n" in reply
            first.sendall(_get(headers="Connection: close\r\n"))
            assert read_replies(first, 1)[0][:2] == (200, "close")
            assert first.recv(1) == b""  # unregistered: a place is free again
            with socket.create_connection(address, timeout=2.0) as fourth:
                fourth.sendall(_get())
                assert read_replies(fourth, 1)[0][0] == 200
            second.sendall(_get())  # the kept-alive one is still served
            assert read_replies(second, 1)[0][0] == 200


def test_a_client_that_never_reads_its_replies_holds_up_no_other(tmp_path):
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(timestamp=at_second(s)) for s in range(DEFAULT_HISTORY_LIMIT)])
    with in_process_server(TrackStore(path)) as httpd:
        address = ("127.0.0.1", httpd.server_address[1])
        with socket.create_connection(address, timeout=2.0) as hog, \
                socket.create_connection(address, timeout=2.0) as other:
            # 200 replies of about 130 kB each: far more than the socket buffers hold.
            hog.sendall(_get("/api/locations?device_id=walker-1") * 200)
            time.sleep(0.2)  # the server fills the hog's buffers and stops reading it
            started = time.monotonic()
            other.sendall(_get())
            assert read_replies(other, 1)[0][0] == 200
            assert time.monotonic() - started < 1.0


def test_kept_alive_connections_start_no_threads(live_server):
    address = ("127.0.0.1", int(live_server.rsplit(":", 1)[1]))
    sockets, started = [], []
    try:
        for _ in range(4):
            sockets.append(socket.create_connection(address, timeout=2.0))
            sockets[-1].sendall(_get())
            assert read_replies(sockets[-1], 1)[0][0] == 404
            if len(sockets) == 1:
                with_one = set(threading.enumerate())
        started = set(threading.enumerate()) - with_one
    finally:
        for sock in sockets:
            sock.close()
    assert started == set()  # the 3 more kept-alive connections run no thread of their own


def test_expect_100_continue_is_answered_before_the_body(live_server):
    port = int(live_server.rsplit(":", 1)[1])
    body = json.dumps(good_fix()).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        sock.sendall(f"POST /api/locations HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n".encode())
        assert sock.recv(1024).startswith(b"HTTP/1.1 100 Continue\r\n")
        sock.sendall(body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert (response.status, json.loads(response.read())["id"]) == (201, 1)


def write_rows(path, rows) -> None:
    path.write_text("".join(json.dumps(dict(row, id=i)) + "\n"
                            for i, row in enumerate(rows, start=1)))


@pytest.mark.parametrize("timestamp", ["yesterday", "2015-06-01T00:05:00", "", 5, None])
def test_unparseable_stored_timestamp_fails_the_query_not_the_load(tmp_path, timestamp):
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(), good_fix(timestamp=timestamp), good_fix(device_id="walker-2")])
    store = TrackStore(path)
    try:
        for _ in range(2):  # a failed sort leaves the device as it was
            with pytest.raises(StorageError, match="record 2") as excinfo:
                store.recent("walker-1", 1)
            assert str(path) in str(excinfo.value)
        assert [r.id for r in store.recent("walker-2", 5)] == [3]
    finally:
        store.close()


def test_get_with_an_unparseable_stored_timestamp_is_500(tmp_path):
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(timestamp="yesterday"), good_fix(device_id="walker-2")])
    with in_process_server(TrackStore(path)) as httpd:
        base = base_url(httpd)
        for query in ("/api/locations/latest?device_id=walker-1",
                      "/api/locations?device_id=walker-1"):
            status, body = http_get(base, query)
            assert status == 500 and "record 1" in body["error"]
        assert http_get(base, "/api/locations/latest?device_id=walker-2")[0] == 200


def test_get_with_a_date_only_stored_timestamp_is_500(tmp_path):
    """A store written before POST refused a date alone still opens; the
    device's queries answer 500 naming the record, not a dropped connection."""
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(), good_fix(timestamp="2015-06-01Z"),
                      good_fix(device_id="walker-2")])
    with in_process_server(TrackStore(path)) as httpd:
        base = base_url(httpd)
        for query in ("/api/locations/latest?device_id=walker-1",
                      "/api/locations?device_id=walker-1"):
            status, body = http_get(base, query)
            assert status == 500 and "record 2" in body["error"] and "timestamp" in body["error"]
        assert http_get(base, "/api/locations/latest?device_id=walker-2")[0] == 200


OUT_OF_RANGE_STORED = [("latitude", 999), ("longitude", -500), ("provider", "carrier-pigeon")]


@pytest.mark.parametrize("field,value", OUT_OF_RANGE_STORED)
def test_out_of_range_stored_fix_fails_the_query_not_the_load(tmp_path, field, value):
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(**{field: value}), good_fix(device_id="walker-2")])
    store = TrackStore(path)
    try:
        with pytest.raises(StorageError) as excinfo:
            store.recent("walker-1", 1)
        for part in (str(path), "record 1", field):
            assert part in str(excinfo.value)
        assert store.recent("walker-2", 1)[0].id == 2
    finally:
        store.close()


@pytest.mark.parametrize("field,value", OUT_OF_RANGE_STORED)
def test_get_with_an_out_of_range_stored_fix_is_500(tmp_path, field, value):
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(**{field: value}), good_fix(device_id="walker-2")])
    with in_process_server(TrackStore(path)) as httpd:
        base = base_url(httpd)
        for query in ("/api/locations/latest?device_id=walker-1",
                      "/api/locations?device_id=walker-1"):
            status, body = http_get(base, query)
            assert status == 500 and "record 1" in body["error"] and field in body["error"]
        assert http_get(base, "/api/locations/latest?device_id=walker-2")[0] == 200


def test_restart_preserves_history(tmp_path):
    path = tmp_path / "locations.jsonl"
    store = TrackStore(path)
    for minute in (5, 10):
        store.insert(good_fix(timestamp=f"2015-06-01T00:{minute:02d}:00Z"))
    before_latest = store.recent("walker-1", 1)
    before_history = store.recent("walker-1", 10)
    store.close()

    store = TrackStore(path)
    after_latest = store.recent("walker-1", 1)
    after_history = store.recent("walker-1", 10)
    store.close()

    assert after_latest == before_latest
    assert after_history == before_history


# -- reply reuse -------------------------------------------------------------------


def fresh_reply(records, device_id, limit):
    """(status, body) of a GET as a server that encodes every reply sends it:
    the reference store's answer through json.dumps.  limit None asks for
    the latest fix."""
    if limit is None:
        latest = reference_store.latest_fix(records, device_id)
        if latest is None:
            return 404, json.dumps({"error": f"no fix recorded for device '{device_id}'"}).encode()
        return 200, json.dumps(latest.as_dict()).encode()
    found = reference_store.history(records, device_id, limit)
    return 200, json.dumps([r.as_dict() for r in found]).encode()


def get_reply(conn, device_id, limit):
    """(status, body) of a latest (limit None) or history GET on conn."""
    conn.request("GET", f"/api/locations/latest?device_id={device_id}" if limit is None
                 else f"/api/locations?device_id={device_id}&limit={limit}")
    response = conn.getresponse()
    return response.status, response.read()


def post_record(conn, fix) -> FixRecord:
    conn.request("POST", "/api/locations", json.dumps(fix), {"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 201
    return FixRecord(**json.loads(response.read()))


@pytest.mark.parametrize("seed", range(3))
def test_get_replies_are_the_bytes_of_a_fresh_encode(tmp_path, seed):
    """A seeded mix of POSTs (in order, tied with a device's newest, out of
    order) and latest/history GETs on one kept-alive connection: each GET
    body is the one an encode of the reference answer gives."""
    rng = random.Random(seed)
    devices = ("walker-1", "walker-2", "walker-3")
    newest = dict.fromkeys(devices, 600)
    records, kinds = [], set()
    with in_process_server(TrackStore(tmp_path / "locations.jsonl")) as httpd:
        base = base_url(httpd)
        conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=5)
        conn.connect()
        sock = conn.sock
        for _ in range(400):
            device = rng.choice(devices)
            if rng.random() < 0.3:
                kind = rng.choice(("in order", "tied", "out of order"))
                if kind == "in order":
                    newest[device] += rng.randint(1, 90)
                second = newest[device] - (rng.randint(1, 120) if kind == "out of order" else 0)
                kinds.add(kind)
                records.append(post_record(conn, good_fix(
                    device_id=device, timestamp=at_second(second),
                    latitude=round(rng.uniform(-89, 89), 6))))
            else:
                device = rng.choice(devices + ("nobody",))
                limit = rng.choice((None, 1, 3, 50))
                assert get_reply(conn, device, limit) == fresh_reply(records, device, limit)
        assert conn.sock is sock  # every exchange rode the one connection
        conn.close()
    assert kinds == {"in order", "tied", "out of order"}


def test_an_out_of_order_post_into_a_capped_history_changes_its_reply(live_server):
    """The POST leaves the length and the last record of the limit-3 answer
    as they were; its content still changes, and so do the bytes sent."""
    conn = http.client.HTTPConnection(live_server.removeprefix("http://"), timeout=5)
    records = [post_record(conn, good_fix(timestamp=at_second(second), latitude=latitude))
               for second, latitude in ((600, 1.0), (1200, 2.0), (1800, 3.0))]
    before = get_reply(conn, "walker-1", 3)
    assert before == fresh_reply(records, "walker-1", 3)
    latest = get_reply(conn, "walker-1", None)
    records.append(post_record(conn, good_fix(timestamp=at_second(900), latitude=4.0)))
    after = get_reply(conn, "walker-1", 3)
    assert after == fresh_reply(records, "walker-1", 3) != before
    assert get_reply(conn, "walker-1", None) == latest  # the newest fix is still the newest
    records.append(post_record(conn, good_fix(timestamp=at_second(2400), latitude=5.0)))
    for limit in (None, 3):
        assert get_reply(conn, "walker-1", limit) == fresh_reply(records, "walker-1", limit)
    conn.close()


def test_a_get_queries_the_store_only_after_an_insert_into_its_device(tmp_path):
    """A reply is kept with its device's version and limit.  With no insert
    into the device between, a GET sends it again and queries nothing, an
    insert into another device among them; after an insert into the
    device, even one that leaves the newest fix as it was, the next GET of
    each kind queries and is encoded afresh."""
    store = TrackStore(tmp_path / "locations.jsonl")
    records = [store.insert(good_fix(timestamp=at_second(s))) for s in (60, 120)]
    asked = []
    recent = store.recent
    store.recent = lambda *args: asked.append(args) or recent(*args)
    both = [("walker-1", 1), ("walker-1", 50)]
    with in_process_server(store) as httpd:
        conn = http.client.HTTPConnection(base_url(httpd).removeprefix("http://"), timeout=5)

        def get_each(times: int) -> None:
            for _ in range(times):
                for limit in (None, 50):
                    assert get_reply(conn, "walker-1", limit) == fresh_reply(records, "walker-1",
                                                                             limit)

        get_each(3)
        assert asked == both
        records.append(post_record(conn, good_fix(device_id="walker-2")))
        get_each(2)
        assert asked == both
        records.append(post_record(conn, good_fix(timestamp=at_second(30))))  # not the newest
        get_each(3)
        assert asked == both * 2
        assert get_reply(conn, "walker-1", 2) == fresh_reply(records, "walker-1", 2)
        assert asked == both * 2 + [("walker-1", 2)]
        conn.close()


def test_racing_handlers_leave_only_fresh_replies(tmp_path):
    """Four kept-alive clients POST and GET the same two devices at once,
    with the interpreter switching threads often.  Once they are done,
    every reply is the fresh encode of the store's records, so no racing
    pair of stores left bytes that belong to other records."""
    store = TrackStore(tmp_path / "locations.jsonl")
    acked, failures = [], []
    devices = ("walker-1", "walker-2")

    def client(n: int, base: str) -> None:
        rng = random.Random(n)
        conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=5)
        try:
            for step in range(60):
                device = rng.choice(devices)
                if step % 3 == 0:
                    second = rng.randrange(3600)
                    acked.append(post_record(conn, good_fix(device_id=device,
                                                            timestamp=at_second(second))))
                else:
                    status, _ = get_reply(conn, device, rng.choice((None, 3)))
                    assert status in (200, 404)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            conn.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with in_process_server(store) as httpd:
            base = base_url(httpd)
            threads = [threading.Thread(target=client, args=(n, base)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            records = sorted(acked, key=lambda r: r.id)
            conn = http.client.HTTPConnection(base.removeprefix("http://"), timeout=5)
            for device in devices:
                for limit in (None, 3):
                    assert get_reply(conn, device, limit) == fresh_reply(records, device, limit)
            conn.close()
    finally:
        sys.setswitchinterval(interval)


def test_the_reply_table_holds_at_most_two_replies_per_stored_device(tmp_path):
    store = TrackStore(tmp_path / "locations.jsonl")
    for second in range(70):
        store.insert(good_fix(timestamp=at_second(second)))
    store.insert(good_fix(device_id="walker-2"))
    with in_process_server(store) as httpd:
        conn = http.client.HTTPConnection(f"127.0.0.1:{httpd.server_address[1]}", timeout=5)
        for n in range(200):
            assert get_reply(conn, f"ghost-{n}", None)[0] == 404
            assert get_reply(conn, f"ghost-{n}", 50) == (200, b"[]")
        for limit in range(1, 61):
            status, body = get_reply(conn, "walker-1", limit)
            assert status == 200 and len(json.loads(body)) == limit
        for device in ("walker-1", "walker-2"):
            assert get_reply(conn, device, None)[0] == 200
        conn.close()
        replies = httpd.replies
        assert {device for device, _ in replies} == {"walker-1", "walker-2"}
        assert len(replies) <= 2 * 2


def test_a_failing_query_answers_500_each_time_and_keeps_no_reply(tmp_path):
    path = tmp_path / "locations.jsonl"
    write_rows(path, [good_fix(timestamp="yesterday"), good_fix(device_id="walker-2")])
    with in_process_server(TrackStore(path)) as httpd:
        conn = http.client.HTTPConnection(f"127.0.0.1:{httpd.server_address[1]}", timeout=5)
        for _ in range(3):
            for limit in (None, 50):
                status, body = get_reply(conn, "walker-1", limit)
                assert status == 500 and "record 1" in json.loads(body)["error"]
        conn.close()
        assert [key for key in httpd.replies if key[0] == "walker-1"] == []


# -- the server against a model, across restarts -----------------------------------

MODEL_DEVICES = ("walker-1", "walker-2")
# Instants a minute apart, each in the columns' form and in two forms the
# store keeps beside its columns: fractional seconds, a space for the 'T'.
MODEL_TIMESTAMPS = [spelling for second in range(0, 240, 60)
                    for spelling in (at_second(second), at_second(second).replace("T", " "),
                                     at_second(second)[:-1] + ".500Z")]
# (method, path, body, the field its 400 names); none closes the connection.
BAD_REQUESTS = [
    ("GET", "/api/locations?device_id=walker-1&limit=0", None, "limit"),
    ("GET", "/api/locations/latest", None, "device_id"),
    ("POST", "/api/locations", json.dumps(good_fix(latitude=91.0)), "latitude"),
    ("POST", "/api/locations", "{not json", "body"),
]


class ServerModel(RuleBasedStateMachine):
    """The HTTP server on one kept-alive connection, against the reference
    store: POSTs in and out of time order, latest and history GETs with
    drawn limits, bad requests, and restarts of the store on its file,
    which keep no reply, as a new process keeps none.  Every answer is the
    reference's, and every GET's body the bytes of a fresh json.dumps, so a
    reply kept by version cannot go stale across a restart or an
    out-of-order insert."""

    def __init__(self) -> None:
        super().__init__()
        self.stack = ExitStack()
        directory = self.stack.enter_context(tempfile.TemporaryDirectory())
        self.path = os.path.join(directory, "locations.jsonl")
        self.httpd = self.stack.enter_context(in_process_server(TrackStore(self.path)))
        self.conn = http.client.HTTPConnection(base_url(self.httpd).removeprefix("http://"),
                                               timeout=5)
        self.conn.connect()
        self.sock = self.conn.sock
        self.records: list[FixRecord] = []

    @rule(device=st.sampled_from(MODEL_DEVICES), timestamp=st.sampled_from(MODEL_TIMESTAMPS),
          latitude=st.integers(-89, 89))
    def post(self, device, timestamp, latitude):
        fix = good_fix(device_id=device, timestamp=timestamp, latitude=float(latitude))
        self.records.append(post_record(self.conn, fix))
        assert self.records[-1] == FixRecord(len(self.records), **fix)

    @rule(device=st.sampled_from(MODEL_DEVICES + ("nobody",)))
    def latest(self, device):
        assert get_reply(self.conn, device, None) == fresh_reply(self.records, device, None)

    @rule(device=st.sampled_from(MODEL_DEVICES + ("nobody",)), limit=st.integers(1, 6))
    def history(self, device, limit):
        assert get_reply(self.conn, device, limit) == fresh_reply(self.records, device, limit)

    @rule(request=st.sampled_from(BAD_REQUESTS))
    def bad_request(self, request):
        method, path, body, field = request
        self.conn.request(method, path, body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        assert (response.status, json.loads(response.read())["field"]) == (400, field)

    @rule()
    def restart(self):
        self.httpd.service.store.close()
        serve_store(self.httpd, TrackStore(self.path))

    @invariant()
    def one_connection(self):
        assert self.conn.sock is self.sock

    def teardown(self):
        self.conn.close()
        try:
            self.stack.close()
        finally:
            self.httpd.service.store.close()


TestServerModel = ServerModel.TestCase
TestServerModel.settings = settings(max_examples=40, stateful_step_count=40)


# -- subprocess entry point ---------------------------------------------------------


def test_importing_the_server_leaves_the_simulator_out():
    code = ("import sys, echoguide.server; "
            "print([m for m in ('echoguide.world', 'echoguide.app') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, timeout=60)
    assert result.stdout == "[]\n"


@pytest.fixture
def no_env(monkeypatch):
    monkeypatch.delenv(ENV_LISTEN, raising=False)
    monkeypatch.delenv(ENV_STORE, raising=False)


@pytest.mark.parametrize("listen,reason", [
    ("127.0.0.1:70000", "port must be at most 65535"),
    ("127.0.0.1:\u00b2", "listen address must be host:port, the port in ASCII digits"),
    ("nohost", "listen address must be host:port, the port in ASCII digits"),
])
def test_cli_bad_listen_address_exits_2(tmp_path, capsys, no_env, listen, reason):
    assert server_main(["--listen", listen, "--store", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr() == ("", f"error: --listen {listen}: {reason}\n")


def test_listen_port_takes_ascii_digits_only(tmp_path, capsys, no_env):
    # int() reads these Arabic-Indic digits as 8750, and bind() would take that.
    listen = "127.0.0.1:\u0668\u0667\u0665\u0660"
    assert server_main(["--listen", listen, "--store", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr().err == (f"error: --listen {listen}: listen address must be "
                                       f"host:port, the port in ASCII digits\n")


def test_cli_address_in_use_exits_2(tmp_path, capsys, no_env):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        listen = f"127.0.0.1:{taken.getsockname()[1]}"
        assert server_main(["--listen", listen, "--store", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr() == ("", f"error: --listen {listen}: Address already in use\n")


def test_cli_names_the_environment_variable_that_set_the_address(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_LISTEN, "127.0.0.1:99999")
    monkeypatch.delenv(ENV_STORE, raising=False)
    assert server_main(["--listen", "127.0.0.1:0", "--store", str(tmp_path / "s.jsonl")]) == 2
    assert capsys.readouterr().err == (f"error: {ENV_LISTEN} 127.0.0.1:99999: "
                                       f"port must be at most 65535\n")


def test_cli_corrupt_store_exits_2(tmp_path, capsys, no_env):
    store = tmp_path / "s.jsonl"
    store.write_text("not json\n")
    assert server_main(["--listen", "127.0.0.1:0", "--store", str(store)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --store: {store}:1: corrupt record")


def test_cli_store_in_a_missing_directory_exits_2(tmp_path, capsys, no_env):
    store = tmp_path / "missing" / "s.jsonl"
    assert server_main(["--listen", "127.0.0.1:0", "--store", str(store)]) == 2
    assert capsys.readouterr() == ("", f"error: --store {store}: No such file or directory\n")


def test_cli_serves_and_env_overrides_flags(tmp_path):
    env_store = tmp_path / "env.jsonl"
    flag_store = tmp_path / "flag.jsonl"
    env_port = free_port()
    flag_port = free_port()

    env = dict(os.environ)
    env["ECHOGUIDE_LISTEN"] = f"127.0.0.1:{env_port}"
    env["ECHOGUIDE_STORE"] = str(env_store)
    proc = subprocess.Popen(
        [sys.executable, "-m", "echoguide.server",
         "--listen", f"127.0.0.1:{flag_port}", "--store", str(flag_store)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        wait_for_server(env_port)
        base = f"http://127.0.0.1:{env_port}"
        status, body = http_post(base, "/api/locations", good_fix())
        assert status == 201 and body["id"] == 1
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    # The env-specified store received the record; the flag one was never created.
    assert env_store.exists()
    assert not flag_store.exists()
    row = json.loads(env_store.read_text().splitlines()[0])
    assert row["device_id"] == "walker-1"


def test_a_server_killed_mid_stream_keeps_every_acknowledged_fix(tmp_path, capsys):
    """SIGKILL a server while one client POSTs over a kept-alive connection:
    the reopened store holds every fix answered 201, with ids 1..n, and at
    most the one POST in flight beyond them."""
    path = tmp_path / "locations.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "echoguide.server", "--listen", "127.0.0.1:0",
         "--store", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    acked: list[dict] = []
    enough = threading.Event()

    def post_until_the_server_dies(port: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            for second in range(3600):
                fix = good_fix(latitude=22.0 + second / 3600,
                               timestamp=f"2015-06-01T00:{second // 60:02d}:{second % 60:02d}Z")
                connection.request("POST", "/api/locations", body=json.dumps(fix),
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 201
                acked.append(json.loads(response.read()))
                if len(acked) >= 20:
                    enough.set()
        except (ConnectionError, http.client.HTTPException):
            pass  # the kill
        finally:
            connection.close()
            enough.set()

    try:
        port = int(proc.stdout.readline().split("serving on http://127.0.0.1:")[1].split()[0])
        client = threading.Thread(target=post_until_the_server_dies, args=(port,))
        client.start()
        assert enough.wait(timeout=10)
        proc.kill()
        client.join(timeout=10)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert len(acked) >= 20

    TrackStore(path).close()  # which cuts a torn last line away
    records = [record.as_dict() for record in stored_records(path)]
    assert records[:len(acked)] == acked  # each with its id and fields
    assert [record["id"] for record in records] == list(range(1, len(records) + 1))
    assert len(records) <= len(acked) + 1  # at most the POST the kill cut short
    warning = capsys.readouterr().err
    assert warning == "" or (warning.startswith(f"warning: {path}: truncated a torn last line")
                             and warning.count("\n") == 1)
