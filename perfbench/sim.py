"""Simulator side of the benchmark: pinned trace hashes, timed walks, and
the checks every walk's trace must pass.

A walk is `harness.run_scenario` followed by `TraceLog.to_jsonl`, the path
`echoguide-sim run --trace` takes.  Functions are looked up on their modules
at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from echoguide import harness
from echoguide.world import load_scenario

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class Tally:
    """Operations attempted and failed, with the first few failure reasons.
    Client threads share one tally."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, reason: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_outputs(scenario_dir: Path, names: list[str]) -> dict:
    """The hashes the benchmark pins: each bundled trace at its own seed with
    the default config, and the accuracy experiment's trace and MAPE table."""
    bundled = {
        name: sha256(harness.run_scenario(load_scenario(scenario_dir / f"{name}.json")).to_jsonl())
        for name in names
    }
    experiment = harness.distance_error_experiment()
    return {
        "bundled": bundled,
        "experiment": {
            "trace": sha256(experiment.to_jsonl()),
            "mape_table": sha256(harness.error_report([experiment]).table()),
        },
    }


def check_pins(scenario_dir: Path, pins: dict, tally: Tally) -> None:
    names = sorted(pins["bundled"])
    try:
        actual = pinned_outputs(scenario_dir, names)
    except (OSError, ValueError) as exc:
        tally.check(False, f"pinned outputs could not be produced: {exc}")
        return
    for name in names:
        tally.check(actual["bundled"][name] == pins["bundled"][name],
                    f"bundled trace {name} changed")
    for key in ("trace", "mape_table"):
        tally.check(actual["experiment"][key] == pins["experiment"][key],
                    f"experiment {key} changed")


def check_trace(events: list[dict], label: str, tally: Tally) -> None:
    """Invariants of every walk: sorted by time, one ack per delivered
    upload, ack ids rising strictly."""
    times = [e["t"] for e in events]
    tally.check(all(a <= b for a, b in zip(times, times[1:])), f"{label}: trace not sorted by t")
    delivered = sum(1 for e in events if e["kind"] == "upload" and e["outcome"] == "delivered")
    acks = [e["id"] for e in events if e["kind"] == "server_ack"]
    tally.check(len(acks) == delivered and all(a < b for a, b in zip(acks, acks[1:])),
                f"{label}: {delivered} delivered uploads but acks {acks}")


def walk(script, config, seed: int, store_path=None) -> tuple[int, str]:
    """One walk as the CLI runs it; returns (event count, JSON lines)."""
    trace = harness.run_scenario(script, config, seed=seed, store_path=store_path)
    return len(trace), trace.to_jsonl()


def peak_walk_mb(script, config, seed: int) -> float:
    """tracemalloc peak of one walk, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        walk(script, config, seed)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Times are scaled to a reference host speed, measured by a probe: a fixed
# piece of interpreter work timed just before and just after each sample.
# On a shared host the speed of a CPU changes by up to 2x within seconds,
# which moves raw times far more than the program's changes do, while the
# probe moves with them.  Scaling by the
# probe keeps what the program costs and removes what the host did.
# PROBE_REFERENCE_MS is the probe's time on the 2-vCPU host the benchmark
# was tuned on when that host ran at full speed.
PROBE_REFERENCE_MS = 1.5


class _Cell:
    def __init__(self, key: int) -> None:
        self.key = key


_PROBE_HEAP: list[_Cell] = []


def probe_ms() -> float:
    """The probe: a fixed piece of interpreter work, timed five times; the
    median of the five, in ms.  Half of it is arithmetic on a few objects,
    half a scan over 50k objects, as the store's queries do.  The garbage
    collector is kept out of it, so the heap beside it does not change its
    time."""
    if not _PROBE_HEAP:
        _PROBE_HEAP.extend(_Cell(i % 20) for i in range(50_000))
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            rng = random.Random(0)
            table: dict[int, float] = {}
            acc = 0.0
            started = time.perf_counter()
            for i in range(1_000):
                x = rng.random()
                table[i & 63] = x
                acc += sorted((x, acc % 1.0, 0.5))[1]
            matches = [cell for cell in list(_PROBE_HEAP) if cell.key == 3]
            times.append((time.perf_counter() - started) * 1000.0)
            del matches
        return statistics.median(times)
    finally:
        gc.enable()


def scaled(fn) -> tuple[float, float, object]:
    """Run fn between two probes: (seconds it took, mean probe ms, result)."""
    before = probe_ms()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    return elapsed, (before + probe_ms()) / 2.0, result


def at_reference(duration: float, probe: float) -> float:
    """A duration measured while the probe took `probe` ms, at reference speed."""
    return duration * PROBE_REFERENCE_MS / probe


@dataclass
class Rounds:
    """Timed walks: per round, host ms per walk at reference speed and as
    measured, and the mean probe; each is the round's mean, so every sample
    weighs the workload's scenarios equally.  `first` holds the hashes of
    the first round's traces."""

    walk_ms: list[float] = field(default_factory=list)
    raw_ms: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    first: dict[str, str] = field(default_factory=dict)


def timed_rounds(scripts: list, config, seed_streams: list, seconds: float,
                 tally: Tally, expect_first: dict | None = None) -> Rounds:
    """Walk every script once per round until `seconds` have passed.

    Each walk's trace is checked outside the timed region; `expect_first`
    maps a script name to the hash its first walk must have.
    """
    rounds = Rounds()
    deadline = time.perf_counter() + seconds
    while not rounds.walk_ms or time.perf_counter() < deadline:
        walk_ms = raw_ms = probes = 0.0
        for (name, script), seeds in zip(scripts, seed_streams):
            run_seed = next(seeds)
            elapsed, probe, (count, text) = scaled(lambda: walk(script, config, run_seed))
            raw_ms += elapsed * 1000.0
            walk_ms += at_reference(elapsed * 1000.0, probe)
            probes += probe
            label = f"{name} seed {run_seed}"
            events = [json.loads(line) for line in text.splitlines()]
            tally.check(count == len(events), f"{label}: to_jsonl lost events")
            check_trace(events, label, tally)
            if not rounds.walk_ms:
                rounds.first[name] = sha256(text)
                if expect_first is not None and name in expect_first:
                    tally.check(rounds.first[name] == expect_first[name],
                                f"{label}: trace hash is not the expected one")
        rounds.walk_ms.append(walk_ms / len(scripts))
        rounds.raw_ms.append(raw_ms / len(scripts))
        rounds.probes.append(probes / len(scripts))
    return rounds
