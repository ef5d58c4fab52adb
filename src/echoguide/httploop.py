"""A small HTTP/1.1 server: one thread serves every connection from one
selectors loop, after D. Kegel's "The C10K problem" and the event-driven
Flash server (Pai, Druschel & Zwaenepoel, USENIX ATC 1999).

Both ends of the tracking API read messages by the rules defined here: the
head limits, digits, add_field, closes and content_length.  The guardian
imports them, so email and traceback are imported only where they are used.

The loop keeps a read buffer, a write buffer and a deadline per connection
and never waits on a peer.  It alone frames requests, answers methods with
no route and holds the limits; a route only answers.  It reads the request
line and header fields itself (RFC 9112 sections 2 to 6), a head at most
MAX_HEAD_BYTES and MAX_HEADER_LINES lines, and a body only for a POST that
Content-Length frames: a POST framed otherwise is answered 400 or 413, and
any other request that declares a body is answered and closed.  A method
with no route is 405 if RFC 9110 or PATCH names it, else 501.  Requests are
answered in turn, each reply sent before the next request is read, so a
client that stops reading stops only itself.  A request has one deadline,
REQUEST_TIMEOUT_S after its first byte or the last reply's leaving, the
later: a head or POST body not whole by then is answered 408 and closed.  A
connection idle that long, or whose reply waits that long for its peer, is
closed; one past MAX_CONNECTIONS is answered 503 and closed.  Every reply
the loop makes itself is an {"error": ...} JSON body.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import threading
import time
from http import HTTPStatus
from typing import Optional

REQUEST_TIMEOUT_S = 10.0  # a request's time to arrive, an idle connection's, a reply's to leave
MAX_HEAD_BYTES = 65536  # the start line and header lines with their line ends
MAX_HEADER_LINES = 100  # header lines with the blank line that ends them, as http.client counts
MAX_BODY_BYTES = 64 * 1024
MAX_CONNECTIONS = 256  # registered client sockets; one more is answered 503 and closed
# RFC 9110 section 9 and PATCH (RFC 5789): one of these without a route is 405, not 501.
_KNOWN_METHODS = frozenset({"GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS",
                            "TRACE", "PATCH"})
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode() for s in HTTPStatus}


def digits(text: str) -> Optional[int]:
    """The value of ASCII digits, at most sys.maxsize, or None for any other
    text, such as '+5', '1_0', ' 5' or other scripts' digits, which int() takes."""
    if not (text.isascii() and text.isdigit()):
        return None
    stripped = text.lstrip("0")
    return int(stripped or "0") if len(stripped) < 19 else sys.maxsize


def add_field(fields: dict[str, list[str]], line: str) -> bool:
    """Add a field line under its lower-cased name; False for one with no name,
    no colon or blanks around the name, obs-fold too (RFC 9112 5.1, 5.2)."""
    name, colon, value = line.partition(":")
    if not colon or not name or name != name.strip(" \t"):
        return False
    fields.setdefault(name.lower(), []).append(value.strip(" \t"))
    return True


def closes(fields: dict[str, list[str]], before_1_1: bool) -> bool:
    """Whether the connection ends after this message (RFC 9112 section 9.3)."""
    tokens = {token.strip().lower() for value in fields.get("connection", ())
              for token in value.split(",")}
    return "close" in tokens or (before_1_1 and "keep-alive" not in tokens)


def content_length(values: list[str]) -> Optional[int]:
    """Content-Length's value, its lines one list (RFC 9110 5.3) of the same
    ASCII digits (8.6): '5, 5' reads as 5; '5, 6', '' or no line as None."""
    members = {member.strip(" \t") for value in values for member in value.split(",")}
    return digits(members.pop()) if len(members) == 1 else None


def _body_length(headers: dict[str, list[str]]) -> int:
    """A POST's Content-Length, or a _Refusal that leaves its body unread.
    Transfer-Encoding overrides Content-Length (RFC 9112 section 6.3) and is
    not supported, so it is refused."""
    if "transfer-encoding" in headers:
        raise _Refusal(400, "Transfer-Encoding is not supported; send Content-Length",
                       "Transfer-Encoding")
    length = content_length(headers.get("content-length", []))
    if length is None:
        raise _Refusal(400, "Content-Length must be one non-negative integer", "Content-Length")
    if length > MAX_BODY_BYTES:
        raise _Refusal(413, f"request body exceeds {MAX_BODY_BYTES} bytes", "Content-Length")
    return length


class _Refusal(Exception):
    """A request answered with (status, message[, field]) and a close; with
    no arguments, one whose connection closes without a reply."""


class Connection:
    """One client connection: its buffers, its deadline and the request being
    read.  The loop calls the do_<METHOD> route that a subclass defines,
    looked up when called, once per framed request; a route queues its
    reply with _send, _reply or _error."""

    def __init__(self, server: LoopServer, sock: socket.socket, address) -> None:
        self.server, self.sock, self.address = server, sock, address
        self.rbuf, self.wbuf = bytearray(), bytearray()
        self.deadline = time.monotonic() + server.timeout
        self.eof = self.writing = self.close_connection = False
        self.command: Optional[str] = None  # until a request line is read
        self.want: Optional[int] = None  # the length of the POST body awaited
        self.read = 0  # the bytes of rbuf read into the request so far

    def on_event(self) -> None:
        """Read (unless a reply waits for the peer to read it), then answer."""
        if not self.writing:
            data = self.sock.recv(65536)
            if data and not self.rbuf and self.command is None:  # a request's first byte
                self.deadline = time.monotonic() + self.server.timeout
            self.rbuf += data
            self.eof = not data
        while self._flush():  # each reply leaves before the next request is read
            ending = self.close_connection and self.want is None  # the last reply is out
            if not ending and self._next_request():
                continue
            if ending or self.eof:
                self.server.close_request(self)
            return

    def _flush(self) -> bool:
        """Send what wbuf holds; False while part of it waits for the peer.
        The deadline restarts when a reply has left or starts to wait."""
        if self.wbuf:
            try:
                del self.wbuf[:self.sock.send(self.wbuf)]
            except BlockingIOError:
                pass
            if not (self.wbuf and self.writing):
                self.deadline = time.monotonic() + self.server.timeout
        if bool(self.wbuf) != self.writing:  # wait for room to write, or for a request
            self.writing = not self.writing
            self.server._selector.modify(
                self.sock, selectors.EVENT_WRITE if self.writing else selectors.EVENT_READ, self)
        return not self.writing

    def _next_request(self) -> bool:
        """Read on in rbuf, whose first byte is the head's, a line at a time,
        and answer the request once it is whole; True once there is a reply
        or a 100 Continue to send, or the connection is to close."""
        try:
            while self.want is None:
                start = self.read
                end = self.rbuf.find(b"\n", start, MAX_HEAD_BYTES)
                if end < 0:
                    if len(self.rbuf) < MAX_HEAD_BYTES:
                        return False
                    raise (_Refusal(414, HTTPStatus(414).phrase) if self.command is None
                           else _Refusal(431, "Request header fields too large"))
                line = self.rbuf[start:end].decode("latin-1").rstrip("\r")
                self.read = end + 1
                if self.command is None:
                    self._request_line(line)
                    continue
                self.lines += 1
                if self.lines > MAX_HEADER_LINES:
                    raise _Refusal(431, "Too many headers")
                if not line:
                    del self.rbuf[:self.read]  # the head; the body, if any, starts rbuf
                    self.read = 0
                    if self._head_read():
                        return True
                elif not add_field(self.headers, line):
                    raise _Refusal(400, f"Bad header line ({line!r})")
            if len(self.rbuf) < self.want:
                return False
            self.body = bytes(self.rbuf[:self.want])
            del self.rbuf[:self.want]
            self.want = None
            self._dispatch()
        except _Refusal as refusal:
            self.close_connection = True
            if refusal.args:
                self._error(*refusal.args)
        return True

    def _request_line(self, line: str) -> None:
        """method SP target SP HTTP/x.y, read as http.server reads it."""
        words = line.split()
        if not words:
            raise _Refusal()
        self.command, self.headers, self.lines = "", {}, 0
        if len(words) >= 3:
            version = words[-1]
            major, dot, minor = version[5:].partition(".")
            if not (version.startswith("HTTP/") and dot and all(
                    n.isascii() and n.isdigit() and len(n) <= 10 for n in (major, minor))):
                raise _Refusal(400, f"Bad request version ({version!r})")
            if int(major) >= 2:
                raise _Refusal(505, f"Invalid HTTP version ({version[5:]})")
            self.version = (int(major), int(minor))
        if len(words) != 3:
            raise _Refusal(400, f"Bad request syntax ({line!r})")
        self.command, path = words[:2]
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

    def _head_read(self) -> bool:
        """Settle the connection's fate and the body's framing; True once
        there is something to send."""
        self.close_connection = closes(self.headers, self.version < (1, 1))
        if self.command != "POST":
            # A body left unread would be parsed as the next request, so a
            # request that declares one is answered and its connection closed.
            if "transfer-encoding" in self.headers or content_length(
                    self.headers.get("content-length", ["0"])) != 0:
                self.close_connection = True
            self._dispatch()
            return True
        self.want = _body_length(self.headers)
        if self.version >= (1, 1) and self.headers.get("expect", [""])[0].lower() == "100-continue":
            self.wbuf += b"HTTP/1.1 100 Continue\r\n\r\n"  # the client holds the body back for it
            return True
        return False

    def _dispatch(self) -> None:
        route = getattr(self, "do_" + self.command, None)
        if route is None:  # its body, if any, stays unread
            if self.command in _KNOWN_METHODS:
                raise _Refusal(405, f"method {self.command} is not allowed")
            raise _Refusal(501, f"Unsupported method ({self.command!r})")
        sent = len(self.wbuf)
        try:
            route()
        except Exception:  # a bug in a route: report it, answer 500, serve on
            self.server.report_error(self.address)
            del self.wbuf[sent:]
            self._error(500, "internal server error", close=True)
        self.command = None

    def _reply(self, status: int, payload: object, close: bool = False) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), close)

    def _send(self, status: int, body: bytes, close: bool = False) -> None:
        self.close_connection = self.close_connection or close
        self.wbuf += b"%s%sContent-Type: application/json; charset=utf-8\r\nContent-Length: %d\r\n" % (
            _STATUS_LINES[status], self.server.date_header(), len(body))
        if status == 405:
            self.wbuf += self.server.allow
        elif status == 503:
            self.wbuf += b"Retry-After: 1\r\n"
        # Say so whenever the connection ends after this reply: `close`, the
        # request (HTTP/1.0, Connection: close) or the route may end it.
        self.wbuf += b"Connection: close\r\n\r\n" if self.close_connection else b"\r\n"
        if self.command != "HEAD":
            self.wbuf += body

    def _error(self, status: int, message: str, field: Optional[str] = None,
               close: bool = False) -> None:
        payload: dict = {"error": message}
        if field is not None:
            payload["field"] = field
        self._reply(status, payload, close)


class LoopServer:
    """The listening socket and every client connection, served by one
    selectors loop on the thread that calls serve_forever().  No call waits
    on a peer; a route's own calls, such as a store's fsync, are the only
    ones that block."""

    def __init__(self, address: tuple[str, int], handler: type[Connection]) -> None:
        self.handler, self.timeout = handler, REQUEST_TIMEOUT_S
        routes = sorted(name[3:] for name in dir(handler) if name.startswith("do_"))
        self.allow = f"Allow: {', '.join(routes)}\r\n".encode()  # the field of a 405
        self.socket = socket.create_server(address, backlog=128)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._stop = False
        self._stopped = threading.Event()
        self._date = (0, b"")

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until shutdown() is called from another thread or an
        exception, such as KeyboardInterrupt, ends the loop.  Deadlines are
        checked every poll_interval."""
        self._stopped.clear()
        swept = time.monotonic()
        try:
            while not self._stop:
                for key, _ in self._selector.select(poll_interval):
                    if key.data is None:
                        self._accept()
                        continue
                    try:
                        key.data.on_event()
                    except ConnectionError:  # the peer reset or dropped it: say nothing
                        self.close_request(key.data)
                    except Exception:
                        self.report_error(key.data.address)
                        self.close_request(key.data)
                if time.monotonic() - swept >= poll_interval:
                    swept = time.monotonic()
                    self._expire(swept)
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop serve_forever() and wait until it has returned."""
        self._stop = True
        self._stopped.wait()

    def server_close(self) -> None:
        """Close every registered connection, then the listening socket."""
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                self.close_request(key.data)
        self._selector.close()
        self.socket.close()

    def _accept(self) -> None:
        try:
            sock, address = self.socket.accept()
        except OSError:  # the peer gave up before its turn
            return
        sock.setblocking(False)
        if len(self._selector.get_map()) <= MAX_CONNECTIONS:  # the listener is one
            self.process_request(sock, address)
            return
        refused = self.handler(self, sock, address)
        refused._error(503, f"the server is at its limit of {MAX_CONNECTIONS} connections",
                       close=True)
        _end(sock, refused.wbuf)

    def process_request(self, sock: socket.socket, address) -> None:
        """Register an accepted connection with the loop."""
        # A reply leaves in one send; TCP_NODELAY keeps one that takes more,
        # or one behind a 100 Continue, from waiting for a delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ, self.handler(self, sock, address))

    def close_request(self, connection: Connection) -> None:
        self._selector.unregister(connection.sock)
        _end(connection.sock, connection.wbuf)

    def _expire(self, now: float) -> None:
        """Close each connection past its deadline, answering 408 first to a
        request whose head or POST body is not whole."""
        for key in list(self._selector.get_map().values()):
            connection = key.data
            if connection is not None and connection.deadline <= now:
                part = "head" if connection.want is None else "body"
                if (connection.rbuf or part == "body") and not connection.wbuf:  # a request begun
                    connection._error(408, f"request {part} did not arrive within "
                                      f"{self.timeout} s", field=part, close=True)
                self.close_request(connection)

    def date_header(self) -> bytes:
        """The Date field of a reply sent now (RFC 9110 section 6.6.1)."""
        now = int(time.time())
        if now != self._date[0]:
            from email.utils import formatdate  # here, so the tracker's import loads no email
            self._date = (now, f"Date: {formatdate(now, usegmt=True)}\r\n".encode())
        return self._date[1]

    @staticmethod
    def report_error(address) -> None:
        """Print the exception being handled to stderr, as socketserver does."""
        import traceback

        print("-" * 40, file=sys.stderr)
        print("Exception occurred during processing of request from", address, file=sys.stderr)
        traceback.print_exc()
        print("-" * 40, file=sys.stderr)


def _end(sock: socket.socket, unsent: bytes) -> None:
    """Send what fits of the last reply, end the stream and close the socket."""
    try:
        sock.send(unsent)
        sock.shutdown(socket.SHUT_WR)
        sock.recv(65536)  # what the peer sent unread: closing over it resets the connection
    except OSError:  # nothing to read, or the peer is gone
        pass
    sock.close()
