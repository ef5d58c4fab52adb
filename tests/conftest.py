"""Shared test helpers: scenario/config builders, the one way tests serve,
feed and read the tracking store, and a terminal summary that prints one
PASS/FAIL line per acceptance criterion."""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from echoguide import httploop, server
from echoguide.config import SystemConfig, config_from_dict
from echoguide.server import FixRecord, TrackStore, make_http_server
from echoguide.world import ScenarioScript, scenario_from_dict

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
CONFIG_DIR = REPO_ROOT / "configs"
EXPECTATION_DIR = REPO_ROOT / "expectations"


def make_script(duration_ms: int = 10_000, seed: int = 1, **overrides) -> ScenarioScript:
    """Scenario builder with sane defaults; overrides use the file schema."""
    doc: dict = {"schema_version": 1, "duration_ms": duration_ms, "seed": seed}
    doc.update(overrides)
    return scenario_from_dict(doc)


def zero_noise_config(**sections) -> SystemConfig:
    """System config whose echoes reproduce the true distance exactly."""
    zero = {"rel_sigma": 0.0, "rel_bias": 0.0, "outlier_prob": 0.0}
    doc = {
        "schema_version": 1,
        "calibration": {
            "tiles": {"dry": dict(zero), "wet": dict(zero)},
            "concrete": {"dry": dict(zero), "wet": dict(zero)},
        },
    }
    doc.update(sections)
    return config_from_dict(doc)


# -- live HTTP server helpers -------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_server(port: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    url = f"http://127.0.0.1:{port}/api/locations/latest?device_id=__probe__"
    while time.monotonic() < deadline:
        try:
            urllib.request.urlopen(url, timeout=1.0)
            return
        except urllib.error.HTTPError:
            return  # any HTTP status means the server is up
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.05)
    raise RuntimeError(f"server on port {port} did not come up")


def at_second(second: int) -> str:
    """The timestamp `second` seconds after 2015-06-01T00:00:00Z."""
    instant = datetime(2015, 6, 1, tzinfo=timezone.utc) + timedelta(seconds=second)
    return instant.strftime("%Y-%m-%dT%H:%M:%SZ")


def stored_records(path) -> list[FixRecord]:
    """The records a whole store file holds, in file order, each line read
    with json.loads and blank lines skipped."""
    with open(path, "rb") as fh:
        return [FixRecord(**json.loads(line)) for line in fh if not line.isspace()]


@contextmanager
def in_process_server(store: TrackStore, port: int = 0,
                      timeout_s: float = httploop.REQUEST_TIMEOUT_S,
                      max_connections: int = httploop.MAX_CONNECTIONS):
    """Serve `store` on 127.0.0.1:port (a free port for 0) from a thread,
    yield the server, and close the store once the server has stopped.
    While it runs, the loop gives up on a silent connection after timeout_s
    and holds at most max_connections."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(httploop, "REQUEST_TIMEOUT_S", timeout_s)
        patch.setattr(httploop, "MAX_CONNECTIONS", max_connections)
        httpd = make_http_server(f"127.0.0.1:{port}", server.TrackService(store))
        thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            yield httpd
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5.0)
            store.close()


def serve_store(httpd, store: TrackStore) -> None:
    """Have a server from in_process_server answer from `store` from now on,
    keeping no reply it encoded before."""
    httpd.service.store = store
    httpd.replies.clear()


def http_post(base: str, path: str, payload) -> tuple[int, object]:
    """POST a JSON payload (or bytes as they are) to base + path: the status
    and the decoded reply."""
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_get(base: str, path: str) -> tuple[int, object]:
    """GET base + path: the status and the decoded reply."""
    try:
        with urllib.request.urlopen(base + path, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class ServerProcess:
    """A real tracking-server subprocess bound to a fresh port."""

    def __init__(self, store_path: str, port: int | None = None, env: dict | None = None):
        self.port = free_port() if port is None else port
        self.base = f"http://127.0.0.1:{self.port}"
        self.store_path = store_path
        cmd = [
            sys.executable, "-m", "echoguide.server",
            "--listen", f"127.0.0.1:{self.port}",
            "--store", store_path,
        ]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env
        )

    def wait_ready(self) -> "ServerProcess":
        try:
            wait_for_server(self.port)
        except Exception:
            self.stop()
            raise
        return self

    def post_fix(self, body: dict) -> tuple[int, dict]:
        return http_post(self.base, "/api/locations", body)

    def get(self, path: str) -> tuple[int, object]:
        return http_get(self.base, path)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
        self.proc.stdout.close()


@pytest.fixture
def server_factory(tmp_path):
    """Start real server subprocesses; everything is stopped on teardown."""
    started: list[ServerProcess] = []

    def start(store_name: str = "locations.jsonl", port: int | None = None) -> ServerProcess:
        server = ServerProcess(str(tmp_path / store_name), port=port).wait_ready()
        started.append(server)
        return server

    yield start
    for server in started:
        server.stop()


# -- acceptance criterion reporting -------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        if report.when == "call":
            _ACCEPTANCE_RESULTS[name] = report.outcome
        elif report.when == "setup" and report.outcome != "passed":
            _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")
