"""The benchmark's traced counters for one sparse and one dense walk.

perfbench counts polls, gate checks and rounds by wrapping program
functions from outside (perfbench/tracing.py).  A speed-up that stops
calling a wrapped function (harness.sample_echo per poll, firmware.gate_valid
per sample) would zero those per-layer metrics without failing a trace
pin, so the counts are pinned here.  perfbench is only imported, never
changed; a change to what a walk does has to change these numbers.
"""

from __future__ import annotations

import sys

import pytest

from conftest import CONFIG_DIR, REPO_ROOT, SCENARIO_DIR
from echoguide.config import load_config
from echoguide.harness import run_scenario
from echoguide.world import load_scenario, scenario_from_dict

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import inputs  # noqa: E402
import tracing  # noqa: E402

COUNTED = ("polls", "echo_draws", "gate_checks", "gate_rejects", "rounds", "no_echo_rounds",
           "events")

# Each walk at its scenario's own seed with the default config.
EXPECTED = {
    "walk_20min": dict(polls=9991, echo_draws=9991, gate_checks=9991, gate_rejects=1,
                       rounds=3312, no_echo_rounds=2202, events=3346),
    "dense_course(1)": dict(polls=120020, echo_draws=120020, gate_checks=120020,
                            gate_rejects=32, rounds=13332, no_echo_rounds=0, events=23810),
}


def script(name: str):
    if name == "dense_course(1)":
        return scenario_from_dict(inputs.dense_course(1))
    return load_scenario(SCENARIO_DIR / f"{name}.json")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_walk_counts_what_it_did(name):
    walk = script(name)
    config = load_config(str(CONFIG_DIR / "default.json"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run_scenario(walk, config).to_jsonl()
    counters = tracer.counters()
    assert {key: counters.get(key, 0) for key in COUNTED} == EXPECTED[name]
