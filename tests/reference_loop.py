"""Test-only reference for the sensing loop: the naive per-poll version.

Every poll looks up a segment of one poll: it reads the channel, surface
and weather timelines and the calibration at the clock's time, and the
acquisition loop draws from it once, empty channel or not.  Its
quiet_until is 0, so the firmware never books a quiet round or pass; and
every measurement's truth is looked up on the timelines.  The simulator's skip-ahead loop must give the same traces,
clocks and errors; see test_differential.py.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace
from typing import Optional
from unittest import mock

from echoguide import firmware, harness
from echoguide.clock import VirtualClock
from echoguide.firmware import FirmwareConfig, NoEchoError, gate_valid, median9, pulses_to_cm
from echoguide.world import noise_params_for, sample_echo


def naive_sensor(script, channel, calibration, rng, sample=sample_echo):
    """Drop-in for world.ChannelEcho: looks everything up on every poll.

    segment(t) is the one poll at t.  Its draw calls sample, which gives
    None for an empty channel.  truth_at(t) looks up the true distance,
    surface and weather at every measurement's end.  quiet_until is 0, as
    a source that holds no empty segment has it, so the firmware never
    books its rounds.
    """
    def segment(t):
        params = noise_params_for(script.surface.at(t), script.weather.at(t), calibration)
        return partial(sample, script.channels[channel].at(t), params, rng), t + 1

    def truth_at(t):
        return script.channels[channel].at(t), script.surface.at(t), script.weather.at(t)
    return SimpleNamespace(segment=segment, truth_at=truth_at, quiet_until=0)


def naive_acquire_distance(channel, segment, clock, cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """firmware.acquire_distance as one segment lookup, one draw and one clock
    step per poll; a segment with no draw, or a draw giving None, is a missing echo."""
    valid: list[int] = []
    attempts = 0
    while len(valid) < cfg.samples_per_measurement:
        if attempts >= cfg.max_sample_attempts:
            raise NoEchoError(channel, attempts)
        draw, _ = segment(clock.now())
        pulses = None if draw is None else draw()
        attempts += 1
        clock.advance(cfg.sample_period_ms)
        if pulses is None:
            continue
        distance = pulses_to_cm(pulses)
        if gate_valid(distance):
            valid.append(distance)
    return median9(valid, cfg)


@contextmanager
def naive_loop():
    """Make run_scenario use the reference sensor and acquisition loop."""
    with mock.patch.object(harness, "ChannelEcho", naive_sensor), \
            mock.patch.object(firmware, "acquire_distance", naive_acquire_distance):
        yield


def outcome(run, *args) -> tuple[str, str, Optional[int]]:
    """("trace", jsonl, end) for a finished run, or (error type, message,
    end) for one that raised.  end is the run's virtual time when it
    finished or raised (None if it raised before starting its clock)."""
    clocks = []

    def recorded():
        clocks.append(VirtualClock())
        return clocks[-1]

    with mock.patch.object(harness, "VirtualClock", recorded):
        try:
            result = "trace", run(*args).to_jsonl()
        except Exception as exc:  # compared, not handled: both sides must fail alike
            result = type(exc).__name__, str(exc)
    return (*result, clocks[-1].now() if clocks else None)


def both_outcomes(script, config=None, seed=None):
    """(skip-ahead outcome, reference outcome) of one run_scenario call."""
    fast = outcome(harness.run_scenario, script, config, seed)
    with naive_loop():
        slow = outcome(harness.run_scenario, script, config, seed)
    return fast, slow
