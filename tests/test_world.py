"""World model: scenario timelines, noise calibration, and the echo
sampler."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_script
from echoguide.clock import VirtualClock
from echoguide.errors import ConfigError, ScenarioError
from echoguide.firmware import gate_valid, median9, pulses_to_cm
from echoguide.world import (
    Channel,
    ChannelEcho,
    DEFAULT_CALIBRATION,
    GATE_HIGH_CM,
    GATE_LOW_CM,
    GeoPath,
    NoiseParams,
    SurfaceKind,
    Weather,
    PULSES_PER_CM,
    echo_sampler,
    noise_params_for,
    StepTimeline,
    sample_echo,
    scenario_from_dict,
    utc_string,
    _GATE_PULSES,
    _GATE_READING,
)


# -- scenario timelines ------------------------------------------------------


def test_scene_piecewise_distances_and_holds():
    script = make_script(
        duration_ms=10_000,
        channels={
            "ground": [
                {"t": 0, "distance_cm": 90},
                {"t": 4000, "distance_cm": 40},
                {"t": 6000, "distance_cm": None},
            ]
        },
    )
    ground = script.channels[Channel.GROUND]
    assert ground.at(0) == 90
    assert ground.at(3999) == 90
    assert ground.at(4000) == 40  # step takes effect at its time
    assert ground.at(5999) == 40
    assert ground.at(6000) is None
    assert ground.at(10_000) is None  # value holds to the end
    assert script.channels[Channel.LEFT].at(500) is None  # unscripted channels are empty


def test_scene_geo_path_interpolates_linearly():
    script = make_script(
        duration_ms=10_000,
        geo_path=[
            {"t": 0, "lat": 10.0, "lon": 20.0},
            {"t": 10_000, "lat": 11.0, "lon": 21.0},
        ],
    )
    assert script.geo.at(0)[0] == pytest.approx(10.0)
    mid = script.geo.at(5000)
    assert mid[0] == pytest.approx(10.5)
    assert mid[1] == pytest.approx(20.5)
    end = script.geo.at(10_000)
    assert end[0] == pytest.approx(11.0)


def test_scene_surface_weather_and_providers():
    script = make_script(
        duration_ms=60_000,
        surface=[{"t": 0, "value": "tiles"}, {"t": 30_000, "value": "concrete"}],
        weather=[{"t": 0, "value": "wet"}],
        gps_available=[{"t": 0, "value": True}, {"t": 10_000, "value": False}],
    )
    assert script.surface.at(0) is SurfaceKind.TILES
    assert script.surface.at(30_000) is SurfaceKind.CONCRETE
    assert script.weather.at(0) is Weather.WET
    assert script.gps.at(0) is True and script.gps.at(10_000) is False
    assert script.network.at(0) is True and script.server.at(0) is True  # defaults on


def test_step_at_gives_the_value_and_the_next_step():
    timeline = StepTimeline([(0, "a"), (11, "b"), (499, "c")])
    assert timeline.step_at(0) == ("a", 11)
    assert timeline.step_at(10) == ("a", 11)
    assert timeline.step_at(11) == ("b", 499)
    assert timeline.step_at(499) == ("c", None)
    assert timeline.step_at(10**9) == ("c", None)
    assert [timeline.at(t) for t in (0, 10, 11, 498, 499)] == ["a", "a", "b", "b", "c"]
    with pytest.raises(ScenarioError):
        timeline.step_at(-1)


# -- per-channel echo source ---------------------------------------------------------


class DrawLog:
    """Stand-in for sample_echo that records each draw and returns whole pulses."""

    def __init__(self, clock):
        self.clock = clock
        self.draws = []

    def __call__(self, true_cm, params, rng):
        self.draws.append((self.clock.now(), true_cm, params))
        return round(true_cm * 58)


def test_channel_echo_follows_channel_surface_and_weather_steps():
    script = make_script(
        duration_ms=1000,
        channels={"left": [{"t": 0, "distance_cm": 80}, {"t": 301, "distance_cm": None},
                           {"t": 601, "distance_cm": 120}]},
        surface=[{"t": 0, "value": "tiles"}, {"t": 101, "value": "concrete"}],
        weather=[{"t": 0, "value": "dry"}, {"t": 401, "value": "wet"}],
    )
    clock = VirtualClock()
    log = DrawLog(clock)
    echo = ChannelEcho(script, Channel.LEFT, DEFAULT_CALIBRATION, random.Random(1), sample=log)
    readings = {}
    for t in (0, 100, 101, 300, 301, 400, 401, 600, 601, 1000):
        clock.advance(t - clock.now())
        draw, _ = echo.segment(t)
        readings[t] = None if draw is None else draw()
    assert readings[300] == 80 * 58 and readings[601] == 120 * 58
    assert [readings[t] for t in (301, 400, 401, 600)] == [None] * 4
    tiles_dry = DEFAULT_CALIBRATION[(SurfaceKind.TILES, Weather.DRY)]
    concrete_dry = DEFAULT_CALIBRATION[(SurfaceKind.CONCRETE, Weather.DRY)]
    concrete_wet = DEFAULT_CALIBRATION[(SurfaceKind.CONCRETE, Weather.WET)]
    assert [params for _, _, params in log.draws] == [
        tiles_dry, tiles_dry, concrete_dry, concrete_dry, concrete_wet, concrete_wet]
    assert [t for t, _, _ in log.draws] == [0, 100, 101, 300, 601, 1000]  # no draw when empty


def test_channel_echo_empty_until_stops_at_every_segment_edge():
    script = make_script(
        duration_ms=1000,
        channels={"ground": [{"t": 0, "distance_cm": None}, {"t": 700, "distance_cm": 50}]},
        surface=[{"t": 0, "value": "tiles"}, {"t": 249, "value": "concrete"}],
        weather=[{"t": 0, "value": "dry"}, {"t": 501, "value": "wet"}],
    )
    echo = ChannelEcho(script, Channel.GROUND, DEFAULT_CALIBRATION, random.Random(1))
    assert [echo.segment(t) for t in (0, 248, 249, 500, 501, 699)] == [
        (None, 249), (None, 249), (None, 501), (None, 501), (None, 700), (None, 700)]
    draw, until = echo.segment(700)  # a target, from the last step on
    assert draw is not None and until == math.inf
    assert echo.segment(5000) == (draw, math.inf)  # the target holds past the end


def test_quiet_until_is_the_held_empty_segments_end(monkeypatch):
    script = make_script(
        duration_ms=1000,
        channels={"ground": [{"t": 0, "distance_cm": 50}, {"t": 300, "distance_cm": None},
                             {"t": 600, "distance_cm": 80}, {"t": 900, "distance_cm": None}]},
        surface=[{"t": 0, "value": "tiles"}, {"t": 450, "value": "concrete"}],
    )
    echo = ChannelEcho(script, Channel.GROUND, DEFAULT_CALIBRATION, random.Random(1))
    step_at, looked_up = StepTimeline.step_at, []
    monkeypatch.setattr(StepTimeline, "step_at",
                        lambda timeline, t: looked_up.append(t) or step_at(timeline, t))
    held = []
    for t in (None, 0, 299, 300, 449, 450, 600, 899, 900, 5000):
        if t is not None:
            echo.segment(t)
        lookups = len(looked_up)
        held.append(echo.quiet_until)
        assert len(looked_up) == lookups  # reading it looks nothing up
    # Nothing held yet; a target to 300 ms; empty to the surface step at 450
    # ms, then to the target at 600 ms; a target to 900 ms; empty to the end.
    assert held == [0, 0, 0, 450, 450, 600, 0, 0, math.inf, math.inf]
    assert looked_up == [t for t in (0, 300, 450, 600, 900) for _ in range(3)]  # new segments only


def test_channel_echo_clamps_past_duration():
    # The world holds its final state past duration_ms, while the last
    # measurement round of a run drains; a plain lookup gives that because
    # no step may come after duration_ms.
    script = make_script(duration_ms=1000)
    late = StepTimeline([(0, None), (1500, 40.0)])
    with pytest.raises(ScenarioError, match="step at t=1500"):
        dataclasses.replace(script, channels={**script.channels, Channel.RIGHT: late})
    with pytest.raises(ScenarioError, match="step at t=1001"):
        dataclasses.replace(script, geo=GeoPath([(0, 0.0, 0.0), (1001, 1.0, 1.0)]))

    script = make_script(duration_ms=1000,
                         channels={"right": [{"t": 0, "distance_cm": None},
                                             {"t": 1000, "distance_cm": 40}]},
                         surface=[{"t": 0, "value": "tiles"}, {"t": 1000, "value": "concrete"}])
    echo = ChannelEcho(script, Channel.RIGHT, DEFAULT_CALIBRATION, random.Random(1))
    assert echo.segment(999) == (None, 1000)
    draw, until = echo.segment(1600)  # a target from 1000 ms on, to the end
    assert draw is not None and until == math.inf
    assert script.channels[Channel.RIGHT].at(1600) == 40.0
    assert script.surface.at(1600) is SurfaceKind.CONCRETE


@pytest.mark.parametrize("t_ms, truth, lookups", [
    (300, (80, SurfaceKind.TILES, Weather.DRY), []),
    (301, (None, SurfaceKind.CONCRETE, Weather.DRY), [301] * 3),
], ids=["before the segment's end", "at its end"])
def test_truth_at_is_the_segments_before_its_end_and_looked_up_from_it(monkeypatch, t_ms, truth,
                                                                       lookups):
    script = make_script(
        duration_ms=1000,
        channels={"left": [{"t": 0, "distance_cm": 80}, {"t": 301, "distance_cm": None}]},
        surface=[{"t": 0, "value": "tiles"}, {"t": 301, "value": "concrete"}],
    )
    echo = ChannelEcho(script, Channel.LEFT, DEFAULT_CALIBRATION, random.Random(1))
    assert echo.segment(0)[1] == 301
    at, looked_up = StepTimeline.at, []
    monkeypatch.setattr(StepTimeline, "at",
                        lambda timeline, t: looked_up.append(t) or at(timeline, t))
    assert echo.truth_at(t_ms) == truth
    assert looked_up == lookups  # channel, surface and weather


# -- scenario validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"schema_version": 2, "duration_ms": 100}, "schema_version"),
        ({"schema_version": 1}, "duration_ms"),
        ({"schema_version": 1, "duration_ms": 0}, "duration_ms"),
        (
            {"schema_version": 1, "duration_ms": 100,
             "channels": {"front": [{"t": 0, "distance_cm": 50}]}},
            "channels.front",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "channels": {"ground": [{"t": 5, "distance_cm": 50}]}},
            "channels.ground",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "channels": {"ground": [{"t": 0, "distance_cm": 1500}]}},
            "channels.ground[0].distance_cm",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "surface": [{"t": 0, "value": "grass"}]},
            "surface[0].value",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "geo_path": [{"t": 0, "lat": 95, "lon": 0}]},
            "geo_path[0].lat",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "user_events": [{"t": 10, "kind": "button"}, {"t": 10, "kind": "button"}]},
            "user_events[1].t",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "user_events": [{"t": 10, "kind": "utterance", "text": "  "}]},
            "user_events[0].text",
        ),
        (
            {"schema_version": 1, "duration_ms": 100,
             "user_events": [{"t": 10, "kind": "wave"}]},
            "user_events[0].kind",
        ),
        (
            {"schema_version": 1, "duration_ms": 100, "start_utc": "2015-06-01 00:00"},
            "start_utc",
        ),
        ({"schema_version": True, "duration_ms": 100}, "schema_version"),
        (
            {"schema_version": 1, "duration_ms": 100,
             "gps_avaliable": [{"t": 0, "value": False}]},
            "gps_avaliable: unknown field",
        ),
        (
            # The first upload would be stamped in the year 10000.
            {"schema_version": 1, "duration_ms": 1000, "start_utc": "9999-12-31T23:59:59Z"},
            "start_utc",
        ),
        (
            # A date alone once parsed as local midnight, so the walk's
            # timestamps followed the machine's time zone.
            {"schema_version": 1, "duration_ms": 100, "start_utc": "2015-06-01Z"},
            "start_utc: must be an ISO-8601 UTC date and time",
        ),
    ],
)
def test_invalid_scripts_name_the_offending_field(doc, fragment):
    with pytest.raises(ScenarioError) as excinfo:
        scenario_from_dict(doc)
    assert fragment in str(excinfo.value)


def test_start_utc_does_not_follow_the_local_time_zone():
    code = ("from echoguide.world import scenario_from_dict; print(scenario_from_dict("
            "{'schema_version': 1, 'duration_ms': 1000, 'start_utc': '2015-06-01T00:00:00Z'})"
            ".start_epoch_s)")

    def start_epoch_s(tz: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, TZ=tz),
                              capture_output=True, text=True, check=True, timeout=60).stdout

    assert start_epoch_s("Asia/Dhaka") == start_epoch_s("UTC") == "1433116800\n"


def test_walk_may_end_on_the_last_second_of_9999():
    script = scenario_from_dict({"schema_version": 1, "duration_ms": 1999,
                                 "start_utc": "9999-12-31T23:59:58Z"})
    assert utc_string(script.start_epoch_s + 1) == "9999-12-31T23:59:59Z"


def test_utc_string_gives_every_year_four_digits():
    script = scenario_from_dict({"schema_version": 1, "duration_ms": 1000,
                                 "start_utc": "0999-01-01T00:00:00Z"})
    assert utc_string(script.start_epoch_s) == "0999-01-01T00:00:00Z"


def test_script_defaults_are_usable():
    script = scenario_from_dict({"schema_version": 1, "duration_ms": 1000})
    assert script.channels[Channel.GROUND].at(500) is None
    assert script.surface.at(500) is SurfaceKind.TILES
    assert script.weather.at(500) is Weather.DRY
    assert script.geo.at(500) == (0.0, 0.0)
    assert script.start_epoch_s == 1433116800  # 2015-06-01T00:00:00Z
    assert utc_string(script.start_epoch_s) == "2015-06-01T00:00:00Z"


# -- calibration -------------------------------------------------------------------


def test_default_calibration_orderings_hold():
    # Direct table inspection, independent of any simulation.
    for weather in Weather:
        tiles = DEFAULT_CALIBRATION[(SurfaceKind.TILES, weather)]
        concrete = DEFAULT_CALIBRATION[(SurfaceKind.CONCRETE, weather)]
        assert tiles.rel_sigma < concrete.rel_sigma
    for surface in SurfaceKind:
        dry = DEFAULT_CALIBRATION[(surface, Weather.DRY)]
        wet = DEFAULT_CALIBRATION[(surface, Weather.WET)]
        assert wet.rel_sigma > dry.rel_sigma
        assert abs(wet.rel_bias) > abs(dry.rel_bias)
    worst_dry = DEFAULT_CALIBRATION[(SurfaceKind.CONCRETE, Weather.DRY)].rel_sigma
    for surface in SurfaceKind:
        assert DEFAULT_CALIBRATION[(surface, Weather.WET)].rel_sigma >= worst_dry


def test_noise_params_lookup_and_missing_entry():
    params = noise_params_for(SurfaceKind.TILES, Weather.DRY, DEFAULT_CALIBRATION)
    assert params is DEFAULT_CALIBRATION[(SurfaceKind.TILES, Weather.DRY)]
    with pytest.raises(ConfigError):
        noise_params_for(SurfaceKind.TILES, Weather.DRY, {})


def test_noise_params_validation():
    with pytest.raises(ConfigError):
        NoiseParams(-0.1, 0.0, 0.0)
    with pytest.raises(ConfigError):
        NoiseParams(0.1, 1.5, 0.0)
    with pytest.raises(ConfigError):
        NoiseParams(0.1, 0.0, 1.5)
    # A round gates raw readings by comparison, where nan and inf would fail
    # quietly instead of raising in round(), so the scatter must be finite.
    for sigma in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="rel_sigma must be finite"):
            NoiseParams(sigma, 0.0, 0.0)


# -- echo sampling ------------------------------------------------------------------


def test_sample_echo_zero_noise_is_exact():
    rng = random.Random(0)
    clean = NoiseParams(0.0, 0.0, 0.0)
    assert sample_echo(100, clean, rng) == 5800
    assert sample_echo(1, clean, rng) == 58
    assert sample_echo(644, clean, rng) == 37352


def test_sample_echo_pure_bias():
    rng = random.Random(0)
    biased = NoiseParams(0.0, 0.05, 0.0)
    assert sample_echo(100, biased, rng) == 6090  # 100 * 1.05 * 58


def test_sample_echo_absent_target():
    rng = random.Random(0)
    assert sample_echo(None, NoiseParams(0.1, 0.0, 0.5), rng) is None


def test_sample_echo_outliers_stay_inside_gate():
    rng = random.Random(42)
    ghost_only = NoiseParams(0.0, 0.0, 1.0)
    inside = 0
    for _ in range(1000):
        pulses = sample_echo(100, ghost_only, rng)
        cm = pulses_to_cm(pulses)
        assert GATE_LOW_CM <= cm <= GATE_HIGH_CM
        if GATE_LOW_CM < cm < GATE_HIGH_CM:
            inside += 1
    assert inside >= 990  # edge rounding may graze the bounds, rarely


def test_sample_echo_is_deterministic_per_seed():
    params = noise_params_for(SurfaceKind.CONCRETE, Weather.WET, DEFAULT_CALIBRATION)
    a = [sample_echo(200, params, random.Random(7)) for _ in range(1)]
    b = [sample_echo(200, params, random.Random(7)) for _ in range(1)]
    assert a == b
    run1 = random.Random(7)
    run2 = random.Random(7)
    seq1 = [sample_echo(d, params, run1) for d in (50, 100, 150, None, 200)]
    seq2 = [sample_echo(d, params, run2) for d in (50, 100, 150, None, 200)]
    assert seq1 == seq2
    other = random.Random(8)
    seq3 = [sample_echo(d, params, other) for d in (50, 100, 150, None, 200)]
    assert seq1 != seq3


def test_sample_echo_never_returns_nonpositive_pulses():
    rng = random.Random(3)
    noisy = NoiseParams(0.9, -0.9, 0.0)
    for _ in range(500):
        assert sample_echo(1, noisy, rng) >= 1


def written_out_sample(true_cm, params, rng):
    """The noise model as one expression per draw, with nothing worked out ahead."""
    if rng.random() < params.outlier_prob:
        return max(1, round(rng.uniform(GATE_LOW_CM, GATE_HIGH_CM) * PULSES_PER_CM))
    noisy_cm = true_cm * (1.0 + params.rel_bias) + rng.gauss(0.0, params.rel_sigma * true_cm)
    return max(1, round(noisy_cm * PULSES_PER_CM))


unit = st.floats(0.0, 1.0)
noise_params = st.builds(
    NoiseParams,
    rel_sigma=st.sampled_from([0.0, 0.065, 0.19]) | st.floats(0.0, 2.0),
    rel_bias=st.sampled_from([0.0, 0.06, -0.2]) | st.floats(-0.999, 0.999),
    outlier_prob=st.sampled_from([0.0, 1.0, 0.05]) | unit,
)


@settings(max_examples=300)
@given(true_cm=st.sampled_from([0.5, 1, 15.4, 100, 644, 1000]) | st.floats(0.5, 1000.0),
       params=noise_params, seed=st.integers(0, 2**64), polls=st.integers(0, 40))
def test_echo_sampler_draws_as_sample_echo_per_poll(true_cm, params, seed, polls):
    # A segment's draw closure, one sample_echo call per poll and the noise
    # model written out take the same readings and leave the generator in
    # the same state (gauss's cached second value included).
    rngs = [random.Random(seed) for _ in range(3)]
    draw = echo_sampler(true_cm, params, rngs[0])
    closure = [draw() for _ in range(polls)]
    per_poll = [sample_echo(true_cm, params, rngs[1]) for _ in range(polls)]
    written = [written_out_sample(true_cm, params, rngs[2]) for _ in range(polls)]
    assert closure == per_poll == written
    assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()


def test_echo_sampler_shares_the_generator_with_other_draws():
    # Draws of two closures on one generator interleave as their calls do,
    # and with the generator's own gauss, which shares its cached value.
    params = NoiseParams(0.1, 0.02, 0.3)
    a, b = random.Random(5), random.Random(5)
    near, far = echo_sampler(40.0, params, a), echo_sampler(300.0, params, a)
    got = [near(), far(), far(), near(), sample_echo(120.0, params, a), near()]
    want = [written_out_sample(cm, params, b) for cm in (40.0, 300.0, 300.0, 40.0, 120.0, 40.0)]
    assert got == want and a.getstate() == b.getstate()
    got = [a.gauss(0.0, 1.0), near(), a.gauss(0.0, 1.0), far(), far(), a.gauss(0.0, 1.0)]
    want = [b.gauss(0.0, 1.0), written_out_sample(40.0, params, b), b.gauss(0.0, 1.0),
            written_out_sample(300.0, params, b), written_out_sample(300.0, params, b),
            b.gauss(0.0, 1.0)]
    assert got == want and a.getstate() == b.getstate()


def test_pulse_gate_is_the_firmware_gate_on_converted_counts():
    low, high = _GATE_PULSES
    assert (low, high) == (899, 37_380)
    assert all((low <= p <= high) == gate_valid(pulses_to_cm(p)) for p in range(40_001))


def test_reading_gate_is_the_pulse_gate_on_rounded_readings():
    # Every half and whole reading within 3 pulses of each gate end, and the
    # floats next to each, are banked on the float bounds exactly when their
    # rounded count is inside the pulse gate.
    low, high = _GATE_PULSES
    above, at_most = _GATE_READING
    assert (above, at_most) == (898.5, 37_380.5)
    halves = [k / 2 for end in (low, high) for k in range(2 * end - 6, 2 * end + 7)]
    readings = halves + [math.nextafter(x, to) for x in halves for to in (-math.inf, math.inf)]
    assert len(readings) == 78
    for x in readings:
        assert (above < x <= at_most) == (low <= round(x) <= high), x


def readings_at(x):
    """(true_cm, params) for which a gaussian poll reads exactly x before it
    is rounded: no bias and no scatter, so the reading is true_cm * 58."""
    exact = NoiseParams(0.0, 0.0, 0.0)
    true_cm = x / PULSES_PER_CM
    for _ in range(8):
        if true_cm * PULSES_PER_CM == x:
            return true_cm, exact
        true_cm = math.nextafter(true_cm, math.inf if true_cm * PULSES_PER_CM < x else -math.inf)
    raise AssertionError(f"no true_cm reads {x!r}")


def take_one_by_one(draw, polls, bank, needed):
    """draw.take as draw() per poll, then pulses_to_cm and gate_valid; the
    polls spent.  The bank gets pulse counts."""
    for spent in range(1, polls + 1):
        pulses = draw()
        if gate_valid(pulses_to_cm(pulses)):
            bank.append(pulses)
            if len(bank) == needed:
                return spent
    return polls


@settings(max_examples=300)
@given(true_cm=st.sampled_from([1, 15.4, 100, 644, 1000]) | st.floats(0.5, 1000.0),
       params=st.builds(NoiseParams,
                        rel_sigma=st.sampled_from([0.0, 0.19, 3.0]) | st.floats(0.0, 4.0),
                        rel_bias=st.sampled_from([0.0, -0.9, 0.9]) | st.floats(-0.999, 0.999),
                        outlier_prob=st.sampled_from([0.0, 1.0]) | unit),
       seed=st.integers(0, 2**64), gauss_next=st.none() | st.floats(-5.0, 5.0),
       bank=st.lists(st.integers(_GATE_PULSES[0], _GATE_PULSES[1]), max_size=8),
       polls=st.integers(1, 50))
def test_take_is_drawing_one_poll_at_a_time(true_cm, params, seed, gauss_next, bank, polls):
    # A round's take spends the polls and leaves the generator (gauss's
    # cached value included) as draw() per poll does; its bank holds the raw
    # readings, which round to the pulse counts of the polls the gate
    # passes, and the converted rounded median is median9 of the converted
    # readings.
    rngs = [random.Random(seed) for _ in range(2)]
    banks = [list(bank), list(bank)]
    for rng in rngs:
        rng.gauss_next = gauss_next
    spent = echo_sampler(true_cm, params, rngs[0]).take(polls, banks[0], 9)
    assert spent == take_one_by_one(echo_sampler(true_cm, params, rngs[1]), polls, banks[1], 9)
    assert [round(x) for x in banks[0]] == banks[1]
    assert rngs[0].getstate() == rngs[1].getstate()
    if len(banks[0]) == 9:
        converted = [pulses_to_cm(round(x)) for x in banks[0]]
        assert pulses_to_cm(round(sorted(banks[0])[4])) == median9(converted)


@pytest.mark.parametrize("x,banked", [
    (898, False), (math.nextafter(898.5, -math.inf), False), (898.5, False),
    (math.nextafter(898.5, math.inf), True), (899, True), (37_380, True),
    (math.nextafter(37_380.5, -math.inf), True), (37_380.5, True),
    (math.nextafter(37_380.5, math.inf), False), (37_381, False)])
def test_take_gates_exactly_at_both_ends(x, banked):
    # A reading is banked raw exactly when draw() gives a count the
    # firmware's gate passes, at each gate end's half and either side of it.
    true_cm, exact = readings_at(x)
    pulses = echo_sampler(true_cm, exact, random.Random(1))()
    assert pulses == round(x)
    assert gate_valid(pulses_to_cm(pulses)) == banked
    bank: list[float] = []
    take = echo_sampler(true_cm, exact, random.Random(1)).take
    assert take(3, bank, 2) == (2 if banked else 3)
    assert bank == ([x] * 2 if banked else [])


_ties = st.integers(-40_000, 80_000).map(lambda k: k + 0.5)


@settings(max_examples=300)
@given(xs=st.lists(_ties | st.integers(-40_000, 80_000).map(float)
                   | st.floats(-1e6, 1e6) | st.floats(allow_nan=False, allow_infinity=False),
                   min_size=9, max_size=9))
def test_the_rounded_median_is_the_median_of_the_rounded(xs):
    # round() never decreases, halves included (they go to the even
    # neighbour), so rounding the median of nine raw readings gives the
    # median of their pulse counts.
    assert round(sorted(xs)[4]) == sorted(map(round, xs))[4]


def test_take_covers_both_gate_ends_and_the_one_pulse_clamp():
    # The draws the property test above compares reach past both gate ends
    # and down to the clamp: a wide scatter around a near target.
    draw = echo_sampler(400.0, NoiseParams(3.0, 0.0, 0.0), random.Random(11))
    readings = {draw() for _ in range(2000)}
    assert min(readings) == 1 and max(readings) > _GATE_PULSES[1]
    assert any(1 < p < _GATE_PULSES[0] for p in readings)


def test_channel_enum_values_are_wire_words():
    assert {c.value for c in Channel} == {"ground", "left", "right"}
