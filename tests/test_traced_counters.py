"""The benchmark's traced counters for a sparse, a quiet and a dense walk.

perfbench counts polls, gate checks and rounds by wrapping program
functions from outside (perfbench/tracing.py).  A speed-up that stops
calling a wrapped function (harness.sample_echo per poll, firmware.gate_valid
per sample) would change those per-layer metrics without failing a trace
pin, so every count is pinned here.  Booking quiet passes in one step is
such a change: on gps_outage it leaves rounds, no_echo_rounds and
iterations at what the polled passes give, while the events, trace bytes
and uploads stay those of polling every pass.  So is booking a quiet
channel's round inside a pass: rounds and no_echo_rounds count only the
rounds that call acquire_distance.  And so is taking a measurement's truth
from the segment its round drew from: lookups counts only the measurements
whose round ended at or past that segment's end (three StepTimeline.at
calls each) and the fixes' lookups.  And so is stepping the app only when
it has work: iterations counts only those steps.  perfbench is only imported, never
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

# Every counter tracing.py's hooks keep; one a walk never bumps is pinned at 0.
COUNTED = ("polls", "echo_draws", "lookups", "rounds", "no_echo_rounds", "gate_checks",
           "gate_rejects", "frames", "link_bytes", "deframe_calls", "tokens", "speaks",
           "voice_events", "iterations", "upload_ticks", "uploads_delivered", "uploads_queued",
           "max.queue_depth", "events", "trace_bytes", "inserts", "records_copied")

# Each walk at its scenario's own seed with the default config.  The link is
# drained only after a firmware pass that sent a frame, so deframe_calls
# counts those passes; iterations counts Uploader.tick calls, one per app
# step.  The app steps only after a pass that sent a frame or once a user
# event or upload is due, so iterations is the number of passes after which
# at least one of those holds: gps_outage 4 (its uploads), walk_20min 8 (4
# passes with a frame and 4 uploads) and dense_course(1) 962 (927 passes with
# frames, the rest for user events and uploads).  Each upload looks up four
# timeline values (gps, network, geo path, server): 16 lookups for four.
# gps_outage has nothing in range: it polls the three rounds of the pass
# from 0 ms; the run loop books the other passes without polling, but for
# the pass that ends on each 5-minute upload, whose rounds the firmware
# books.  walk_20min polls 1,115 of its 3,312 rounds (1,110 measurements
# and 5 rounds with no echo, one on entering each of the left and right
# channels' five empty segments) and takes every measurement's truth from
# its segment.  dense_course(1)
# looks up the truth of 19 of its 13,332 measurements.
EXPECTED = {
    "gps_outage": dict(lookups=16, rounds=3, no_echo_rounds=3, iterations=4, upload_ticks=4,
                       uploads_delivered=4, events=2408, trace_bytes=116455, inserts=4),
    "walk_20min": dict(polls=9991, echo_draws=9991, lookups=16, rounds=1115,
                       no_echo_rounds=5, gate_checks=9991, gate_rejects=1, frames=4,
                       link_bytes=24, deframe_calls=4, tokens=4, speaks=4, voice_events=0,
                       iterations=8, upload_ticks=4, uploads_delivered=4, uploads_queued=0,
                       events=3346, trace_bytes=241346, inserts=4),
    "dense_course(1)": dict(polls=120020, echo_draws=120020, lookups=73, rounds=13332,
                            no_echo_rounds=0, gate_checks=120020, gate_rejects=32, frames=1031,
                            link_bytes=6216, deframe_calls=927, tokens=1031, speaks=678,
                            voice_events=37, iterations=962, upload_ticks=4,
                            uploads_delivered=4, uploads_queued=0, events=23810,
                            trace_bytes=2255159, inserts=4),
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
    assert set(counters) <= set(COUNTED)  # a counter added to tracing.py gets a pin here
    expected = dict.fromkeys(COUNTED, 0) | EXPECTED[name]
    assert {key: counters.get(key, 0) for key in COUNTED} == expected
