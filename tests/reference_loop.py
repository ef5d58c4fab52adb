"""Test-only reference for the sensing loop: the naive per-poll version.

Every poll reads the channel, surface and weather timelines and the
calibration at the clock's time, and the acquisition loop calls the sensor
once per poll, empty channel or not.  The simulator's skip-ahead loop must
give the same traces, clocks and errors; see test_differential.py.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional
from unittest import mock

from echoguide import firmware, harness
from echoguide.firmware import FirmwareConfig, NoEchoError, gate_valid, median9, pulses_to_cm
from echoguide.world import noise_params_for, sample_echo


def naive_sensor(script, channel, calibration, rng, clock, sample=sample_echo):
    """Drop-in for world.ChannelEcho: looks everything up on every poll."""
    def poll() -> Optional[int]:
        t = clock.now()
        params = noise_params_for(script.surface_at(t), script.weather_at(t), calibration)
        return sample(script.distance_cm_at(channel, t), params, rng)
    return poll


def naive_acquire_distance(channel, sensor, clock, cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """firmware.acquire_distance as one sensor call and one clock step per poll."""
    valid: list[int] = []
    attempts = 0
    while len(valid) < cfg.samples_per_measurement:
        if attempts >= cfg.max_sample_attempts:
            raise NoEchoError(channel, attempts)
        pulses = sensor()
        attempts += 1
        clock.advance(cfg.sample_period_ms)
        if pulses is None:
            continue
        distance = pulses_to_cm(pulses, cfg)
        if gate_valid(distance, cfg):
            valid.append(distance)
    return median9(valid, cfg)


@contextmanager
def naive_loop():
    """Make run_scenario use the reference sensor and acquisition loop."""
    with mock.patch.object(harness, "ChannelEcho", naive_sensor), \
            mock.patch.object(firmware, "acquire_distance", naive_acquire_distance):
        yield


def outcome(run, *args) -> tuple[str, str]:
    """("trace", jsonl) for a finished run, or (error type, message) for one that raised."""
    try:
        return "trace", run(*args).to_jsonl()
    except Exception as exc:  # compared, not handled: both sides must fail alike
        return type(exc).__name__, str(exc)


def both_outcomes(script, config=None, seed=None):
    """(skip-ahead outcome, reference outcome) of one run_scenario call."""
    fast = outcome(harness.run_scenario, script, config, seed)
    with naive_loop():
        slow = outcome(harness.run_scenario, script, config, seed)
    return fast, slow
