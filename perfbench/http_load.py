"""Tracking-server side of the benchmark: start the server on a store,
drive it with a guardian's request mix, and check the store afterwards.

The server runs as `python -m echoguide.server` in a subprocess, or, in the
traced run, in a thread of this process so that its calls can be traced.
The client is this process with two threads, using the tracker's own
fetch and render functions.  Every accepted POST is fsynced by the server;
the fsync latency measured here is that of the host's filesystem, which in
a container or sandbox is not a real device's.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field
from pathlib import Path

from echoguide import server, tracker

from inputs import EPOCH_S, UPLOAD_PERIOD_S, Request, request_stream, utc
from sim import PROBE_REFERENCE_MS, Tally, probe_ms

HISTORY_LIMIT = 50
TIMEOUT_S = 10.0
CONNECTIONS = 2
CLOSED_BURST_S = 1.0
PROBE_TRIES = 5
START_TIMEOUT_S = 60.0


def _sort_key(record: dict) -> tuple[str, int]:
    # Timestamps share one fixed-width 'Z' format, so text order is time order.
    return record["timestamp"], record["id"]


@dataclass
class StoreModel:
    """The benchmark's own reference for what the store must answer."""

    records: list[dict]
    devices: list[str]
    acked: list[dict] = field(default_factory=list)
    next_ts: dict[str, int] = field(default_factory=dict)
    floor: dict[str, str] = field(default_factory=dict)
    start_count: dict[str, int] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def from_file(cls, path: Path) -> "StoreModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_records([json.loads(line) for line in fh if line.strip()])

    @classmethod
    def from_records(cls, records: list[dict]) -> "StoreModel":
        model = cls(records, sorted({r["device_id"] for r in records}))
        for device, newest in model.expected_latest().items():
            model.floor[device] = newest["timestamp"]
            model.next_ts[device] = _epoch_offset(newest["timestamp"]) + UPLOAD_PERIOD_S
        for record in records:
            model.start_count[record["device_id"]] = model.start_count.get(record["device_id"], 0) + 1
        return model

    def next_fix(self, device: str) -> dict:
        """A new fix five minutes after the device's previous one."""
        with self.lock:
            ts = self.next_ts[device]
            self.next_ts[device] = ts + UPLOAD_PERIOD_S
        step = (ts // UPLOAD_PERIOD_S) % 1000
        return {
            "device_id": device,
            "latitude": round(22.9 + step * 1e-5, 6),
            "longitude": round(89.5 - step * 1e-5, 6),
            "timestamp": utc(ts),
            "provider": "gps" if step % 7 else "network",
        }

    def all_records(self) -> list[dict]:
        return self.records + self.acked

    def expected_latest(self) -> dict[str, dict]:
        latest: dict[str, dict] = {}
        for record in self.all_records():
            current = latest.get(record["device_id"])
            if current is None or _sort_key(record) > _sort_key(current):
                latest[record["device_id"]] = record
        return latest

    def expected_history(self) -> dict[str, list[dict]]:
        per_device: dict[str, list[dict]] = {}
        for record in self.all_records():
            per_device.setdefault(record["device_id"], []).append(record)
        return {d: sorted(rs, key=_sort_key)[-HISTORY_LIMIT:] for d, rs in per_device.items()}


def _epoch_offset(timestamp: str) -> int:
    return int(server.parse_record_timestamp(timestamp).timestamp()) - EPOCH_S


# -- the server ---------------------------------------------------------------


class ServerProcess:
    """`python -m echoguide.server` on an ephemeral loopback port."""

    def __init__(self, store_path: Path, root: Path, work: Path, probe_device: str) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("ECHOGUIDE_")}
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        started = time.perf_counter()
        self._stderr = open(work / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "echoguide.server", "--listen", "127.0.0.1:0",
             "--store", str(store_path)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
        )
        try:
            self.address = self._read_address(started + START_TIMEOUT_S)
            _wait_for_answer(self.address, probe_device, started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_address(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
            if not ready:
                raise RuntimeError("server did not report its address in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            line += chunk
        # "serving on http://HOST:PORT (store: PATH)"
        return line.decode().split("http://", 1)[1].split()[0]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU seconds the server has used, user and system."""
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # utime and stime: fields 14 and 15 of the line, counted from the pid
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class ServerThread:
    """The same server in a thread of this process, for the traced run."""

    def __init__(self, store_path: Path, probe_device: str) -> None:
        started = time.perf_counter()
        self.store = server.TrackStore(str(store_path))
        self.load_ms = (time.perf_counter() - started) * 1000.0
        self.httpd = server.make_http_server("127.0.0.1:0", server.TrackService(self.store))
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.address = f"{host}:{port}"
        _wait_for_answer(self.address, probe_device, started + START_TIMEOUT_S)

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10.0)
        self.store.close()


def _wait_for_answer(address: str, device: str, deadline: float) -> None:
    while True:
        try:
            tracker.fetch_latest(address, device, timeout=TIMEOUT_S)
            return
        except (tracker.ServerUnreachable, tracker.NoFix):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server at {address} never answered") from None
            time.sleep(0.01)


# -- the client ---------------------------------------------------------------


def post_fix(address: str, fix: dict) -> tuple[int, object]:
    req = urllib.request.Request(
        f"http://{address}/api/locations", data=json.dumps(fix).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=TIMEOUT_S) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.reason


def send(address: str, request: Request, model: StoreModel, tally: Tally) -> bool:
    """One guardian operation, checked; failures count against the tally."""
    device = request.device_id
    try:
        if request.kind == "latest":
            fix = tracker.fetch_latest(address, device, timeout=TIMEOUT_S)
            tracker.show_map(fix)
            ok = fix["device_id"] == device and fix["timestamp"] >= model.floor[device]
            return tally.check(ok, f"latest for {device} answered {fix}")
        if request.kind == "history":
            fixes = tracker.fetch_history(address, device, HISTORY_LIMIT, timeout=TIMEOUT_S)
            tracker.track_feature(fixes)
            keys = [_sort_key(f) for f in fixes]
            ok = (min(HISTORY_LIMIT, model.start_count[device]) <= len(fixes) <= HISTORY_LIMIT
                  and all(f["device_id"] == device for f in fixes) and keys == sorted(keys))
            return tally.check(ok, f"history for {device} is wrong ({len(fixes)} fixes)")
        fix = model.next_fix(device)
        status, body = post_fix(address, fix)
        ok = status == 201 and isinstance(body, dict) and body == {**fix, "id": body.get("id")}
        if ok:
            with model.lock:
                model.acked.append(body)
        return tally.check(ok, f"POST for {device} answered {status} {body}")
    except (tracker.ServerUnreachable, tracker.NoFix, OSError, ValueError, KeyError) as exc:
        return tally.check(False, f"{request.kind} for {device} failed: {exc!r}")


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(address: str, model: StoreModel, streams: list, seconds: float,
                tally: Tally) -> tuple[int, float]:
    """One client per request stream, each waiting for a reply before it
    sends the next request; returns (requests completed, seconds taken)."""
    done = [0] * len(streams)
    started = time.perf_counter()
    deadline = started + seconds

    def client(index: int) -> None:
        for request in streams[index]:
            if time.perf_counter() >= deadline:
                return
            if send(address, request, model, tally):
                done[index] += 1

    _run_threads(client, len(streams))
    return sum(done), time.perf_counter() - started


def open_loop(address: str, model: StoreModel, requests: list[Request], rate: float,
              tally: Tally) -> tuple[list[float], list[float]]:
    """Requests due at a fixed rate, sent by CONNECTIONS threads; returns
    how late each request was sent and how long after it was due its
    answer came, both in ms."""
    lags: list[float] = []
    latencies: list[float] = []
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.01

    def worker(_: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag = (time.perf_counter() - due) * 1000.0
            send(address, requests[index], model, tally)
            latency = (time.perf_counter() - due) * 1000.0
            with lock:
                lags.append(lag)
                latencies.append(latency)

    _run_threads(worker, CONNECTIONS)
    return lags, latencies


@dataclass
class GuardianLoad:
    """Outcome of the guardian's load.  Closed loop: requests per second
    per burst, at the probe's reference speed (bursts whose probes the
    server disturbed are left out) and as measured, and the server's CPU ms
    per completed request.  Open loop: how late each request was sent and
    answered, in ms."""

    rps: list[float] = field(default_factory=list)
    raw_rps: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    server_cpu_ms: float | None = None
    lags: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)


def _bursts(total_s: float, burst_s: float) -> list[float]:
    count = max(1, round(total_s / burst_s))
    return [total_s / count] * count


def _quiet_probe(server_cpu) -> float | None:
    """probe_ms, taken again while the server used CPU beside it (it runs
    on the probe's CPU); None if the server never stayed idle."""
    for _ in range(PROBE_TRIES):
        before = server_cpu() if server_cpu else 0.0
        probe = probe_ms()
        if not server_cpu or server_cpu() == before:
            return probe
    return None


def guardian_load(address: str, model: StoreModel, seed: int, closed_s: float, open_s: float,
                  rate: float, tally: Tally, server_cpu=None) -> GuardianLoad:
    """The closed loop, cut into short bursts with a probe of the host's
    speed between bursts (see sim.probe_ms), each burst scaled by the probes
    beside it; then, if open_s > 0, the open loop at `rate`.  `server_cpu`,
    if given, returns the server process's CPU seconds."""
    streams = [request_stream(seed, i, model.devices) for i in range(CONNECTIONS + 1)]
    load = GuardianLoad()
    completed = 0
    cpu_before = server_cpu() if server_cpu else 0.0
    before = _quiet_probe(server_cpu)
    for burst_s in _bursts(closed_s, CLOSED_BURST_S):
        done, elapsed = closed_loop(address, model, streams[:CONNECTIONS], burst_s, tally)
        completed += done
        after = _quiet_probe(server_cpu)
        load.raw_rps.append(done / elapsed)
        if before is not None and after is not None:
            probe = (before + after) / 2.0
            load.rps.append(done / elapsed * probe / PROBE_REFERENCE_MS)
            load.probes.append(probe)
        before = after
    tally.check(bool(load.rps), "the server used CPU during every probe of the host's speed")
    if server_cpu and completed:
        load.server_cpu_ms = (server_cpu() - cpu_before) * 1000.0 / completed
    if open_s > 0:
        stream = streams[CONNECTIONS]
        requests = [next(stream) for _ in range(max(1, round(open_s * rate)))]
        load.lags, load.latencies = open_loop(address, model, requests, rate, tally)
    return load


def verify_store(store_path: Path, model: StoreModel, tally: Tally) -> None:
    """Reopen the stopped server's store and compare every answer with the
    benchmark's own reference: each acknowledged POST is present under its
    id, and latest and history agree for every device."""
    store = server.TrackStore(str(store_path))
    try:
        service = server.TrackService(store)
        stored = {r.id: asdict(r) for r in store.records()}
        tally.check(len(stored) == len(model.all_records()),
                    f"store holds {len(stored)} records, expected {len(model.all_records())}")
        missing = [a for a in model.acked if stored.get(a["id"]) != a]
        tally.check(not missing, f"{len(missing)} acknowledged POSTs missing or changed")
        latest = model.expected_latest()
        history = model.expected_history()
        for device in model.devices:
            got = service.latest_fix(device)
            tally.check(got is not None and asdict(got) == latest[device],
                        f"latest for {device} after restart is {got}")
            got_history = [asdict(r) for r in service.history(device, HISTORY_LIMIT)]
            tally.check(got_history == history[device], f"history for {device} after restart differs")
    finally:
        store.close()
