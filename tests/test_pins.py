"""Byte identity on every Python the tests run on: the bundled traces, the
accuracy experiment's trace and its MAPE table hash to the values pinned in
perfbench/pins.json, which the benchmark checks too.  This file only reads
the pins; a change to any trace has to change them there."""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR
from echoguide.harness import distance_error_experiment, error_report, run_scenario
from echoguide.world import load_scenario

PINS = json.loads((REPO_ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert sorted(PINS["bundled"]) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(PINS["bundled"]))
def test_bundled_trace_matches_its_pin(name):
    trace = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
    assert sha256(trace.to_jsonl()) == PINS["bundled"][name]


def test_experiment_trace_and_mape_table_match_their_pins():
    experiment = distance_error_experiment()
    assert sha256(experiment.to_jsonl()) == PINS["experiment"]["trace"]
    assert sha256(error_report([experiment]).table()) == PINS["experiment"]["mape_table"]
