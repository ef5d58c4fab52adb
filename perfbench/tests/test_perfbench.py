"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from echoguide import harness  # noqa: E402
from echoguide.server import TrackService, TrackStore  # noqa: E402
from echoguide.world import Channel, load_scenario, scenario_from_dict  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_generators_are_deterministic_for_a_seed():
    assert inputs.dense_course(7) == inputs.dense_course(7)
    assert inputs.dense_course(7) != inputs.dense_course(8)
    assert inputs.store_lines(7, 3, 40) == inputs.store_lines(7, 3, 40)
    assert inputs.store_lines(7, 3, 40) != inputs.store_lines(8, 3, 40)
    assert list(islice(inputs.seed_stream(7, "a"), 5)) == list(islice(inputs.seed_stream(7, "a"), 5))
    assert list(islice(inputs.seed_stream(7, "a"), 5)) != list(islice(inputs.seed_stream(7, "b"), 5))
    devices = inputs.device_ids(4)
    first = list(islice(inputs.request_stream(7, 0, devices), 200))
    assert first == list(islice(inputs.request_stream(7, 0, devices), 200))
    assert {r.kind for r in first} == {"latest", "history", "post"}


def test_dense_course_always_has_a_target_and_crosses_thresholds():
    script = scenario_from_dict(inputs.dense_course(3))
    for channel in Channel:
        values = script.channels[channel].values
        assert None not in values
        threshold = 60 if channel is Channel.GROUND else 100
        assert min(values) < threshold < max(values)
    texts = {e.text for e in script.user_events if e.kind == "utterance"}
    assert {"stop speaking", "start speaking"} <= texts


def test_generated_store_loads_as_written(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text("".join(line + "\n" for line in inputs.store_lines(5, 3, 50)), encoding="utf-8")
    store = TrackStore(str(path))
    try:
        assert [r.id for r in store.records()] == list(range(1, 151))
        assert TrackService(store).latest_fix("walker-02") is not None
    finally:
        store.close()


def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr in tracing.wrapped_attributes()]


def test_traced_run_leaves_no_wrapper_installed():
    before = _originals()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
        harness.run_scenario(load_scenario(ROOT / "scenarios" / "ground_obstacle.json")).to_jsonl()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["world.polls"][0] > 0 and metrics["trace.events"][0] > 0

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_self_times_exclude_children():
    tracer = tracing.Tracer()

    def child():
        return sum(range(20_000))

    traced_child = tracer.timed("t.child", child)
    traced_parent = tracer.timed("t.parent", lambda: [traced_child() for _ in range(5)])
    traced_parent()
    calls, total, own = tracer.funcs()["t.parent"]
    child_total = tracer.funcs()["t.child"][1]
    assert calls == 1
    assert own == pytest.approx(total - child_total)
    assert tracer.edges()[("t.parent", "t.child")] == 5


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if trace == "0":
            assert reported["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_bench("--workload", "walk_sparse", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
