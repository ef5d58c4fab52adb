"""Workloads of the benchmark and the phases each run goes through.

See run.py for what each workload and metric means.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
from pathlib import Path

from echoguide.config import load_config
from echoguide.world import scenario_from_dict

import http_load
import inputs
import sim
import tracing

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
DEFAULT_SEED = 1

WORKLOADS = ("walk_sparse", "obstacle_dense", "tracking_mix")
SPARSE_SCENARIOS = ("walk_20min", "gps_outage", "offline_queue")
STORE_DEVICES = 20
STORE_FIXES_PER_DEVICE = 5_000  # about 17 days of 5-minute uploads each
SMOKE_FIXES_PER_DEVICE = 60
SETUP_SAMPLES = 31
SETUP_BATCH = 10  # set-ups per sample, so one sample is not a fraction of a ms
SERVER_SPAWNS = 5
# tracking_mix's open loop: requests per second, about 40 % of the
# http_rps measured at the parent commit (about 50 on the 2-vCPU host the
# benchmark was tuned on), and the share of --seconds it runs; the closed
# loop has the rest.
OPEN_RATE = 20.0
OPEN_SHARE = 0.3
TRACED_BASELINE_SHARE = 0.3  # of the traced walk time, untraced, for the overhead
# The result has to carry every per-layer metric on every workload.  So
# tracking_mix's traced run also walks walk_20min for this share of
# --seconds (its walk-layer figures repeat walk_sparse's), and the
# simulator workloads' traced runs check the walks' uploads through the
# tracker, as claim c10 does, which gives the query layers a value there.
TRACKING_TRACED_WALK_SHARE = 0.2
UPLOAD_CHECK_RATE = 20.0  # requests per second


def _make_durable(fh) -> None:
    """Write a fresh store out before timing starts, so the kernel does not
    write it back in the middle of the HTTP phases and the server's first
    fsync does not carry it."""
    fh.flush()
    os.fsync(fh.fileno())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def uploaded_records(events: list[dict]) -> list[dict]:
    """The fixes a walk's trace says the server stored: each delivered
    upload under the id of its ack (acks come in delivery order)."""
    delivered = [e for e in events if e["kind"] == "upload" and e["outcome"] == "delivered"]
    acks = [e for e in events if e["kind"] == "server_ack"]
    return [{"device_id": u["device_id"], "id": a["id"], "latitude": u["latitude"],
             "longitude": u["longitude"], "provider": u["provider"], "timestamp": u["timestamp"]}
            for u, a in zip(delivered, acks)]


class Run:
    """One invocation: inputs, phases and checks for a workload."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, work: Path) -> None:
        self.name, self.seed, self.seconds, self.smoke, self.work = name, seed, seconds, smoke, work
        self.tally = sim.Tally()
        self.pins = sim.load_pins()
        if name == "obstacle_dense":
            self.docs = [("dense_course", inputs.dense_course(seed))]
        else:
            # tracking_mix walks only in its traced run
            names = SPARSE_SCENARIOS if name == "walk_sparse" else ("walk_20min",)
            self.docs = []
            for scenario in names:
                with open(SCENARIO_DIR / f"{scenario}.json", "r", encoding="utf-8") as fh:
                    self.docs.append((scenario, json.load(fh)))
        self.scripts = [(n, scenario_from_dict(doc, name=n)) for n, doc in self.docs]
        self.config = load_config(str(DEFAULT_CONFIG))
        self.first_seeds = [next(s) for s in self.seed_streams()]

    def seed_streams(self) -> list:
        """Run seeds per scenario; each stream starts again at self.first_seeds."""
        return [inputs.seed_stream(self.seed, f"{self.name}:{n}") for n, _ in self.docs]

    def expected_first(self) -> dict | None:
        """Hashes the first timed walks must have; pinned for the default seed."""
        if self.seed != DEFAULT_SEED or self.smoke:
            return None
        return self.pins["timed_walks_default_seed"].get(self.name)

    def simulator_setup_s(self) -> tuple[float, float]:
        """Median set-up time at reference speed and as measured, in s."""
        def setup() -> None:
            for _ in range(SETUP_BATCH):
                for n, doc in self.docs:
                    scenario_from_dict(doc, name=n)
                load_config(str(DEFAULT_CONFIG))

        samples = [sim.scaled(setup) for _ in range(3 if self.smoke else SETUP_SAMPLES)]
        return (statistics.median(sim.at_reference(s, p) for s, p, _ in samples) / SETUP_BATCH,
                statistics.median(s for s, _, _ in samples) / SETUP_BATCH)

    def build_store(self) -> Path:
        """tracking_mix's generated store, written before any timing."""
        path = self.work / "store.jsonl"
        fixes = SMOKE_FIXES_PER_DEVICE if self.smoke else STORE_FIXES_PER_DEVICE
        with open(path, "w", encoding="utf-8") as fh:
            for line in inputs.store_lines(self.seed, STORE_DEVICES, fixes):
                fh.write(line + "\n")
            _make_durable(fh)
        return path

    def fresh_copy(self, store: Path) -> Path:
        served = self.work / "served.jsonl"
        shutil.copyfile(store, served)
        with open(served, "a", encoding="utf-8") as fh:
            _make_durable(fh)
        return served

    def walks(self, seconds: float, expect: dict | None) -> sim.Rounds:
        return sim.timed_rounds(self.scripts, self.config, self.seed_streams(), seconds,
                                self.tally, expect)

    def upload_check(self, first: dict[str, str]) -> tuple[list, list[float], list[float]]:
        """Claim c10 through the tracker: each scenario walks once more at
        its first run seed, into a store of its own, and must give the same
        trace as without one; the server then serves that store and the
        guardian asks for each walker's latest fix and history, which must
        be what the trace says was delivered.

        Returns the stores with the benchmark's reference for each (to be
        checked once tracing ends), the stores' load times and how late
        each request was sent, in ms.
        """
        stores, load_ms, lags = [], [], []
        for (name, script), run_seed in zip(self.scripts, self.first_seeds):
            path = self.work / f"uploads-{name}.jsonl"
            _, text = sim.walk(script, self.config, run_seed, str(path))
            self.tally.check(sim.sha256(text) == first[name],
                             f"{name} seed {run_seed}: trace differs when walked into a store")
            model = http_load.StoreModel.from_records(
                uploaded_records([json.loads(line) for line in text.splitlines()]))
            stores.append((path, model))
            if not model.devices:
                continue
            thread_server = http_load.ServerThread(path, model.devices[0])
            try:
                requests = [inputs.Request(kind, device) for device in model.devices
                            for kind in ("latest", "history")]
                lags += http_load.open_loop(thread_server.address, model, requests,
                                            UPLOAD_CHECK_RATE, self.tally)[0]
            finally:
                thread_server.stop()
            load_ms.append(thread_server.load_ms)
        return stores, load_ms, lags

    # -- the two modes ----------------------------------------------------

    def measure(self) -> tuple[dict[str, tuple[float, float, str]], dict[str, tuple[float, str]]]:
        """End-to-end metrics, (value at reference speed, as measured, unit),
        and the figures reported beside them but not gated, (value, unit)."""
        sim.check_pins(SCENARIO_DIR, self.pins, self.tally)
        if self.name == "tracking_mix":
            return self.measure_server()
        peak_mb = max(sim.peak_walk_mb(script, self.config, run_seed)
                      for (_, script), run_seed in zip(self.scripts, self.first_seeds))
        gc.freeze()  # the benchmark's own data stays out of every collection
        setup_s = self.simulator_setup_s()
        rounds = self.walks(self.seconds, self.expected_first())
        walk_ms = statistics.median(rounds.walk_ms)
        return ({"setup_s": (*setup_s, "s"),
                 "op_ms_p50": (walk_ms, statistics.median(rounds.raw_ms), "ms"),
                 "peak_mem_mb": (peak_mb, peak_mb, "MB")},
                {"walk_ms_p50": (walk_ms, "ms")})

    def measure_server(self) -> tuple[dict[str, tuple[float, float, str]], dict[str, tuple[float, str]]]:
        store = self.build_store()
        model = http_load.StoreModel.from_file(store)
        gc.freeze()
        setups = []
        spawns = 1 if self.smoke else SERVER_SPAWNS
        for spawn in range(spawns):
            served = self.fresh_copy(store)
            _, probe, proc = sim.scaled(lambda: http_load.ServerProcess(
                served, ROOT, self.work, model.devices[0]))
            setups.append((sim.at_reference(proc.setup_s, probe), proc.setup_s))
            if spawn < spawns - 1:
                proc.stop()
        try:
            http = http_load.guardian_load(
                proc.address, model, self.seed, (1.0 - OPEN_SHARE) * self.seconds,
                OPEN_SHARE * self.seconds, OPEN_RATE, self.tally, proc.cpu_s)
            peak_mb = proc.peak_rss_mb()
        finally:
            proc.stop()
        http_load.verify_store(served, model, self.tally)

        # With no burst kept, guardian_load has counted a failed check.
        rps = http.rps or http.raw_rps
        return (
            {"setup_s": (statistics.median(s for s, _ in setups),
                         statistics.median(s for _, s in setups), "s"),
             "op_ms_p50": (statistics.median(1000.0 / r for r in rps),
                           statistics.median(1000.0 / r for r in http.raw_rps), "ms"),
             "peak_mem_mb": (peak_mb, peak_mb, "MB")},
            {"http_rps": (statistics.median(rps), "1/s"),
             "http_p50_ms": (percentile(http.latencies, 0.50), "ms"),
             "http_p90_ms": (percentile(http.latencies, 0.90), "ms"),
             "server_cpu_ms_per_request": (http.server_cpu_ms, "ms"),
             "bursts_scaled": (len(http.rps), "count"),
             "bursts": (len(http.raw_rps), "count")},
        )

    def measure_traced(self) -> tuple[dict[str, tuple[float, str]], dict]:
        """Per-layer metrics: (value, unit), with times at reference speed."""
        sim.check_pins(SCENARIO_DIR, self.pins, self.tally)
        tracking = self.name == "tracking_mix"
        if tracking:
            store = self.build_store()
            model = http_load.StoreModel.from_file(store)
            served = self.fresh_copy(store)
        gc.freeze()
        walk_s = self.seconds * (TRACKING_TRACED_WALK_SHARE if tracking else 1.0)
        baseline = self.walks(TRACED_BASELINE_SHARE * walk_s, self.expected_first())
        tracer = tracing.Tracer()
        tracer.calibrate()
        probes: list[float] = []
        with tracing.installed(tracer):
            traced = self.walks((1.0 - TRACED_BASELINE_SHARE) * walk_s, baseline.first)
            if tracking:
                thread_server = http_load.ServerThread(served, model.devices[0])
                try:
                    rest = self.seconds - walk_s
                    http = http_load.guardian_load(thread_server.address, model, self.seed,
                                                   rest / 2.0, rest / 2.0, OPEN_RATE, self.tally)
                finally:
                    thread_server.stop()
                stores, load_ms, lags = [(served, model)], [thread_server.load_ms], http.lags
                probes = http.probes
            else:
                stores, load_ms, lags = self.upload_check(baseline.first)
        for path, reference in stores:
            http_load.verify_store(path, reference, self.tally)

        fixes = sum(len(reference.all_records()) for _, reference in stores)
        metrics = tracing.layer_metrics(tracer)
        metrics.update({
            "server.load_ms": (statistics.median(load_ms) if load_ms else 0.0, "ms"),
            "server.bytes_per_fix": (
                sum(path.stat().st_size for path, _ in stores) / fixes if fixes else 0.0, "B/fix"),
            "loadgen.lag_ms_p90": (percentile(lags, 0.90) if lags else 0.0, "ms"),
        })
        probe = statistics.median(traced.probes + probes)
        metrics = {name: (sim.at_reference(value, probe) if unit.startswith("ms") else value, unit)
                   for name, (value, unit) in metrics.items()}
        metrics["bench.tracing_overhead_frac"] = (
            statistics.median(traced.walk_ms) / statistics.median(baseline.walk_ms) - 1.0, "frac")
        return metrics, tracer.dump()
