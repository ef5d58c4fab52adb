"""Firmware sensing algorithm: conversion, gating, median filter,
acquisition loop, and the edge-triggered tick with its alert thresholds."""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from typing import Callable, Optional
from unittest import mock

import pytest

from conftest import make_script
from echoguide import firmware
from echoguide.clock import VirtualClock
from echoguide.errors import ConfigError
from echoguide.firmware import (
    FirmwareConfig,
    FirmwareState,
    NoEchoError,
    acquire_distance,
    book_quiet_passes,
    firmware_tick,
    gate_valid,
    median9,
    pulses_to_cm,
)
from echoguide.world import (
    DEFAULT_CALIBRATION,
    GATE_HIGH_CM,
    GATE_LOW_CM,
    PULSES_PER_CM,
    Channel,
    ChannelEcho,
    SurfaceKind,
    Weather,
    sample_echo,
)
from reference_loop import naive_acquire_distance, naive_sensor


class ScriptedSensor:
    """Echo source that replays a fixed poll sequence, one poll per segment,
    and counts polls; a None in the sequence is a poll with no echo.  Its
    quiet_until stays 0, so firmware_tick books none of its rounds."""

    quiet_until: float = 0

    def __init__(self, readings, repeat_last: bool = False):
        self.readings = list(readings)
        self.repeat_last = repeat_last
        self.polls = 0

    def segment(self, t_ms: int) -> tuple[Optional[Callable[[], int]], int]:
        if self.polls < len(self.readings):
            value = self.readings[self.polls]
        elif self.repeat_last and self.readings:
            value = self.readings[-1]
        else:
            value = None
        self.polls += 1
        return (None if value is None else lambda: value), t_ms + 1


# -- pulse conversion ---------------------------------------------------------


@pytest.mark.parametrize(
    "pulses,expected",
    [
        (0, 0),
        (28, 0),   # 28/58 < 0.5 rounds down
        (29, 1),   # exactly half a centimetre rounds up
        (58, 1),
        (3480, 60),
        (3509, 61),  # 3509/58 = 60.5 -> half rounds up
        (37352, 644),
    ],
)
def test_pulses_to_cm_vectors(pulses, expected):
    assert pulses_to_cm(pulses) == expected


def test_pulses_to_cm_matches_exact_rational_rounding():
    # Independent oracle: round-half-up computed in exact rational arithmetic.
    for pulses in range(0, 40_000, 7):
        ratio = Fraction(pulses, 58)
        oracle = int(ratio + Fraction(1, 2))  # floor(x + 1/2) = round half up
        assert pulses_to_cm(pulses) == oracle, pulses


def test_pulses_to_cm_roundtrip_is_exact():
    for distance in range(1, 645):
        assert pulses_to_cm(distance * 58) == distance


def test_pulses_to_cm_rejects_negative():
    with pytest.raises(ValueError):
        pulses_to_cm(-1)


# -- gate ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "distance,valid",
    [(14, False), (15, False), (16, True), (100, True),
     (644, True), (645, False), (646, False), (0, False)],
)
def test_gate_is_strictly_exclusive(distance, valid):
    assert gate_valid(distance) is valid


# -- median filter --------------------------------------------------------------


def test_median9_mixed_vector():
    assert median9([90, 10, 50, 30, 70, 20, 80, 40, 60]) == 50


def test_median9_ignores_clustered_high_outliers():
    assert median9([20, 20, 20, 20, 20, 640, 640, 640, 640]) == 20


def test_median9_agrees_with_statistics_median():
    rng = random.Random(1234)
    for _ in range(300):
        values = [rng.randint(16, 644) for _ in range(9)]
        assert median9(values) == statistics.median(values)


def test_median9_permutation_invariant():
    rng = random.Random(99)
    base = [17, 23, 101, 333, 644, 16, 58, 60, 59]
    expected = statistics.median(base)
    for _ in range(50):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert median9(shuffled) == expected


def test_median9_requires_exact_count():
    with pytest.raises(ValueError):
        median9([1] * 8)
    with pytest.raises(ValueError):
        median9([1] * 10)


# -- acquisition loop ------------------------------------------------------------


def test_acquire_constant_sensor_takes_nine_polls():
    sensor = ScriptedSensor([2900] * 9)
    clock = VirtualClock()
    distance = acquire_distance(Channel.GROUND, sensor.segment, clock)
    assert distance == 50
    assert sensor.polls == 9
    assert clock.now() == 90  # one sample period per poll


def test_acquire_alternating_missing_echoes():
    sensor = ScriptedSensor([None, 2900] * 9)
    clock = VirtualClock()
    assert acquire_distance(Channel.GROUND, sensor.segment, clock) == 50
    assert sensor.polls == 18
    assert clock.now() == 180


def test_acquire_discards_out_of_gate_readings():
    # 870 pulses -> 15 cm (gate-invalid); 37410 -> 645 cm (gate-invalid).
    readings = [870, 37410] * 3 + [2900] * 9
    sensor = ScriptedSensor(readings)
    clock = VirtualClock()
    assert acquire_distance(Channel.GROUND, sensor.segment, clock) == 50
    assert sensor.polls == 15


def test_acquire_no_echo_spends_all_attempts():
    sensor = ScriptedSensor([])
    clock = VirtualClock()
    clock.advance(1000)
    with pytest.raises(NoEchoError) as excinfo:
        acquire_distance(Channel.LEFT, sensor.segment, clock)
    assert sensor.polls == 50
    assert clock.now() == 1000 + 50 * 10  # clock honesty on failure too
    assert excinfo.value.channel is Channel.LEFT


def test_acquire_succeeds_on_final_attempt():
    sensor = ScriptedSensor([None] * 41 + [2900] * 9)
    clock = VirtualClock()
    assert acquire_distance(Channel.RIGHT, sensor.segment, clock) == 50
    assert sensor.polls == 50


def test_acquire_fails_when_one_sample_short():
    sensor = ScriptedSensor([None] * 42 + [2900] * 8, repeat_last=False)
    clock = VirtualClock()
    with pytest.raises(NoEchoError):
        acquire_distance(Channel.RIGHT, sensor.segment, clock)


def test_acquire_returns_median_of_noisy_run():
    # Nine valid readings around 100 cm; oracle is the statistics median.
    cms = [98, 104, 100, 96, 101, 99, 103, 100, 97]
    sensor = ScriptedSensor([cm * 58 for cm in cms])
    clock = VirtualClock()
    assert acquire_distance(Channel.GROUND, sensor.segment, clock) == statistics.median(cms)


# -- skipping empty polls ------------------------------------------------------------


def ground_sources(script, calibration=DEFAULT_CALIBRATION):
    """The skip-ahead source and the reference source on the ground channel,
    each as (source, clock, its echo draws as (time, true_cm, params)), on
    equally seeded streams."""
    sides = []
    for make in (ChannelEcho, naive_sensor):
        clock = VirtualClock()
        draws: list[tuple] = []

        def sample(true_cm, params, rng, clock=clock, draws=draws):
            if true_cm is not None:
                draws.append((clock.now(), true_cm, params))
            return sample_echo(true_cm, params, rng)

        source = make(script, Channel.GROUND, calibration, random.Random(7), sample=sample)
        sides.append((source.segment, clock, draws))
    return sides


class CountingEcho(ChannelEcho):
    lookups = 0

    def segment(self, t_ms):
        self.lookups += 1
        return super().segment(t_ms)


def test_acquire_books_a_fully_empty_round_in_one_step():
    clock = VirtualClock()
    clock.advance(1000)
    echo = CountingEcho(make_script(duration_ms=10_000), Channel.GROUND, DEFAULT_CALIBRATION,
                        random.Random(7))
    cfg = FirmwareConfig(sample_period_ms=7, max_sample_attempts=20)
    with pytest.raises(NoEchoError) as excinfo:
        acquire_distance(Channel.GROUND, echo.segment, clock, cfg)
    assert excinfo.value.attempts == cfg.max_sample_attempts
    assert clock.now() == 1000 + cfg.max_sample_attempts * cfg.sample_period_ms
    assert echo.lookups == 1  # one segment lookup finds the channel empty; all polls are booked


@pytest.mark.parametrize("appears_ms", [1, 9, 10, 11, 95, 401])
def test_acquire_banks_first_sample_when_a_target_appears_mid_round(appears_ms):
    # 401 ms leaves exactly nine polls (410..490 ms) before the 50th attempt.
    script = make_script(duration_ms=2000, channels={
        "ground": [{"t": 0, "distance_cm": None}, {"t": appears_ms, "distance_cm": 50}]})
    (echo, clock, draws), (ref, ref_clock, ref_draws) = ground_sources(script)
    distance = acquire_distance(Channel.GROUND, echo, clock)
    assert distance == naive_acquire_distance(Channel.GROUND, ref, ref_clock)
    assert clock.now() == ref_clock.now()
    assert draws == ref_draws
    assert draws[0][:2] == (-(-appears_ms // 10) * 10, 50)


def test_acquire_asks_for_no_skip_after_the_last_attempt():
    # The surface step at 490 ms makes the round's 50th poll a real one.  It
    # finds the channel empty and moves the clock to 500 ms, where the weather
    # turns to a condition the table lacks.  Polling one by one, the round
    # ends there without looking anything up at 500 ms; so must skipping.
    script = make_script(duration_ms=1000,
                         surface=[{"t": 0, "value": "tiles"}, {"t": 490, "value": "concrete"}],
                         weather=[{"t": 0, "value": "dry"}, {"t": 500, "value": "wet"}])
    calibration = {key: DEFAULT_CALIBRATION[key]
                   for key in [(SurfaceKind.TILES, Weather.DRY), (SurfaceKind.CONCRETE, Weather.DRY)]}
    for (echo, clock, _), acquire in zip(ground_sources(script, calibration),
                                         (acquire_distance, naive_acquire_distance)):
        with pytest.raises(NoEchoError):
            acquire(Channel.GROUND, echo, clock)
        assert clock.now() == 500


def test_missing_calibration_entry_raises_at_the_same_poll_as_polling_one_by_one():
    # The surface turns to concrete at 1234 ms while the channel is empty; the
    # table has no concrete entry.  Polling one by one, the first poll at or
    # after 1234 ms raises; skipping ahead must raise there too.
    script = make_script(duration_ms=5000,
                         surface=[{"t": 0, "value": "tiles"}, {"t": 1234, "value": "concrete"}])
    calibration = {(SurfaceKind.TILES, Weather.DRY):
                   DEFAULT_CALIBRATION[(SurfaceKind.TILES, Weather.DRY)]}
    raised_at = []
    for (echo, clock, _), acquire in zip(ground_sources(script, calibration),
                                         (acquire_distance, naive_acquire_distance)):
        with pytest.raises(ConfigError, match="surface=concrete weather=dry"):
            for _ in range(10):  # 500 ms rounds, well past 1234 ms
                with pytest.raises(NoEchoError):
                    acquire(Channel.GROUND, echo, clock)
        raised_at.append(clock.now())
    assert raised_at == [1240, 1240]


@pytest.mark.parametrize("step_ms", [1, 40, 45, 80, 85, 131])
def test_acquire_draws_rounds_across_a_distance_step_as_polling_one_by_one(step_ms):
    # Each round's nine polls straddle the distance step or the surface step
    # at 60 ms (or both); three rounds in a row share each source's segments.
    script = make_script(duration_ms=2000,
                         channels={"ground": [{"t": 0, "distance_cm": 50},
                                              {"t": step_ms, "distance_cm": 300}]},
                         surface=[{"t": 0, "value": "tiles"}, {"t": 60, "value": "concrete"}])
    (echo, clock, draws), (ref, ref_clock, ref_draws) = ground_sources(script)
    for _ in range(3):
        distance = acquire_distance(Channel.GROUND, echo, clock)
        assert distance == naive_acquire_distance(Channel.GROUND, ref, ref_clock)
        assert clock.now() == ref_clock.now()
        assert draws == ref_draws
    assert {true_cm for _, true_cm, _ in draws} == {50, 300}  # the rounds crossed the step


def test_missing_calibration_entry_with_a_target_raises_at_the_same_poll():
    # As the test above with an empty channel, but a target is present, so
    # the polls before 1234 ms each draw an echo.
    script = make_script(duration_ms=5000,
                         channels={"ground": [{"t": 0, "distance_cm": 50}]},
                         surface=[{"t": 0, "value": "tiles"}, {"t": 1234, "value": "concrete"}])
    calibration = {(SurfaceKind.TILES, Weather.DRY):
                   DEFAULT_CALIBRATION[(SurfaceKind.TILES, Weather.DRY)]}
    raised_at = []
    for (echo, clock, draws), acquire in zip(ground_sources(script, calibration),
                                             (acquire_distance, naive_acquire_distance)):
        with pytest.raises(ConfigError, match="surface=concrete weather=dry"):
            for _ in range(20):  # rounds of nine or more polls, well past 1234 ms
                acquire(Channel.GROUND, echo, clock)
        raised_at.append((clock.now(), draws))
    assert raised_at[0] == raised_at[1]
    assert raised_at[0][0] == 1240 and raised_at[0][1][-1][0] == 1230


def test_no_echo_error_keeps_its_fields_and_message():
    error = NoEchoError(Channel.LEFT, 50)
    assert (error.channel, error.attempts) == (Channel.LEFT, 50)
    assert str(error) == "no usable echo on left after 50 polls"


# -- config validation ---------------------------------------------------------------


def test_firmware_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FirmwareConfig(samples_per_measurement=8)  # even
    with pytest.raises(ValueError):
        FirmwareConfig(ground_alert_cm=700)  # outside gate
    with pytest.raises(ValueError):
        FirmwareConfig(ground_alert_cm=10)  # below gate floor
    with pytest.raises(ValueError):
        FirmwareConfig(max_sample_attempts=5)  # cannot finish a measurement
    with pytest.raises(ValueError):
        FirmwareConfig(sample_period_ms=0)


@pytest.mark.parametrize("ground_alert_cm, accepted", [(15, False), (16, True), (644, True),
                                                       (645, False)])
def test_ground_alert_must_sit_strictly_inside_the_gate(ground_alert_cm, accepted):
    """The gate's own 15 and 645 cm are refused: a reading there is at the
    edge of what the sensor reports, never past the threshold."""
    if accepted:
        assert FirmwareConfig(ground_alert_cm=ground_alert_cm).ground_alert_cm == ground_alert_cm
    else:
        with pytest.raises(ValueError, match="inside the valid gate"):
            FirmwareConfig(ground_alert_cm=ground_alert_cm)


# -- firmware tick -----------------------------------------------------------------


def constant_echoes(cm_by_channel: dict) -> list:
    """One echo source per channel, in Channel order, as firmware_tick takes them."""
    echoes = []
    for channel in Channel:
        cm = cm_by_channel.get(channel)
        if cm is None:
            echoes.append(ScriptedSensor([]))
        else:
            echoes.append(ScriptedSensor([cm * 58], repeat_last=True))
    return echoes


# A round's fields, in the order firmware_tick gives them.
CHANNEL, T_MS, DISTANCE_CM, ALERTING, MOTOR_CHANGED, FRAME = range(6)
# Each channel's alert frame: its obstacle word and the link's newline.
FRAMES = {Channel.GROUND: b"Ground\n", Channel.LEFT: b"Left\n", Channel.RIGHT: b"Right\n"}


def frames_of(rounds) -> list[tuple[bytes, int]]:
    return [(r[FRAME], r[T_MS]) for r in rounds if r[FRAME] is not None]


def test_tick_alert_starts_motor_and_sends_one_frame():
    state = FirmwareState()
    clock = VirtualClock()
    echoes = constant_echoes({Channel.GROUND: 40, Channel.LEFT: 200, Channel.RIGHT: 200})
    rounds = firmware_tick(state, echoes, clock)
    assert rounds == [  # (channel, t_ms, distance_cm, alerting, motor_changed, frame)
        (Channel.GROUND, 90, 40, True, True, b"Ground\n"),
        (Channel.LEFT, 180, 200, False, False, None),
        (Channel.RIGHT, 270, 200, False, False, None),
    ]
    assert clock.now() == 270


def test_alert_frames_are_the_channel_word_and_a_newline():
    rounds = firmware_tick(FirmwareState(), constant_echoes(dict.fromkeys(Channel, 30)),
                           VirtualClock())
    assert [r[FRAME] for r in rounds] == [b"Ground\n", b"Left\n", b"Right\n"]


def test_tick_persisting_alert_respects_repeat_interval():
    state = FirmwareState()
    clock = VirtualClock()
    echoes = constant_echoes({Channel.GROUND: 40, Channel.LEFT: 200, Channel.RIGHT: 200})
    frames = []
    passes = 0
    while clock.now() < 5000:
        rounds = firmware_tick(state, echoes, clock)
        frames.extend(frames_of(rounds))
        # The motor switched on in the first pass and stays on.
        assert rounds[0][ALERTING] and rounds[0][MOTOR_CHANGED] == (passes == 0)
        passes += 1
    times = [t for _, t in frames]
    # First edge fires immediately; repeats no closer than the interval.
    assert times[0] == 90
    assert all(b - a >= 2000 for a, b in zip(times, times[1:]))
    assert len(times) >= 2  # the alert does keep re-announcing


def test_tick_no_alert_is_silent_and_motor_off():
    state = FirmwareState()
    clock = VirtualClock()
    echoes = constant_echoes({Channel.GROUND: 90, Channel.LEFT: 150, Channel.RIGHT: 150})
    rounds = firmware_tick(state, echoes, clock)
    assert frames_of(rounds) == []
    assert not any(r[ALERTING] or r[MOTOR_CHANGED] for r in rounds)  # all off, as before


def test_tick_cleared_alert_rearms_edge_trigger():
    state = FirmwareState()
    clock = VirtualClock()

    class Phased:
        """Ground sensor: obstacle, then clear, then obstacle again."""

        quiet_until = 0

        def __init__(self):
            self.phase = 0

        def segment(self, t_ms):
            pulses = 40 * 58 if self.phase != 1 else 90 * 58
            return (lambda: pulses), t_ms + 1

    ground = Phased()
    echoes = [ground, ScriptedSensor([200 * 58], repeat_last=True),
              ScriptedSensor([200 * 58], repeat_last=True)]  # ground, left, right
    first = firmware_tick(state, echoes, clock)[0]
    assert first[FRAME] == b"Ground\n" and first[ALERTING] and first[MOTOR_CHANGED]
    ground.phase = 1  # obstacle gone
    second = firmware_tick(state, echoes, clock)[0]
    assert second[FRAME] is None and not second[ALERTING] and second[MOTOR_CHANGED]
    ground.phase = 2  # obstacle back: fresh edge despite short elapsed time
    third = firmware_tick(state, echoes, clock)[0]
    assert third[FRAME] == b"Ground\n"
    assert third[ALERTING] and third[MOTOR_CHANGED]


def test_tick_no_echo_turns_motor_off():
    state = FirmwareState()
    clock = VirtualClock()
    echoes = constant_echoes({Channel.GROUND: 40, Channel.LEFT: 200, Channel.RIGHT: 200})
    assert firmware_tick(state, echoes, clock)[0][ALERTING]
    silent = constant_echoes({Channel.LEFT: 200, Channel.RIGHT: 200})
    rounds = firmware_tick(state, silent, clock)
    assert rounds[0] == (Channel.GROUND, 270 + 500, None, False, True, None)
    assert not any(r[ALERTING] for r in rounds)  # all off


@pytest.mark.parametrize("quiet_until, polls", [(490, 50), (491, 0), (500, 0), (math.inf, 0)])
def test_tick_books_a_round_whose_every_poll_falls_before_quiet_until(quiet_until, polls):
    # The ground round from 0 ms polls at 0, 10, ..., 490 ms.  Only when its
    # last poll falls before its echo source's quiet_until is the round
    # booked: no poll, no echo, and the clock moved by the round's 500 ms.
    # The echo sources are kept in Channel order: ground first.  A polled
    # round's last lookup finds the empty segment that ends at 491 ms.
    script = make_script(duration_ms=2000, channels={
        "ground": [{"t": 0, "distance_cm": None}, {"t": 491, "distance_cm": 50}]})
    ground_echo = ChannelEcho(script, Channel.GROUND, DEFAULT_CALIBRATION, random.Random(7))
    ground_echo.quiet_until = quiet_until
    echoes = [ground_echo, *constant_echoes({Channel.LEFT: 200, Channel.RIGHT: 200})[1:]]
    polled = {}

    def spy(channel, segment, clock, cfg):  # a polled round's polls, one period each
        start = clock.now()
        try:
            return acquire_distance(channel, segment, clock, cfg)
        finally:
            polled[channel] = (clock.now() - start) // cfg.sample_period_ms

    with mock.patch.object(firmware, "acquire_distance", spy):
        ground = firmware_tick(FirmwareState(), echoes, VirtualClock())[0]
    assert polled.get(Channel.GROUND, 0) == polls
    assert ground == (Channel.GROUND, 500, None, False, False, None)
    assert ground_echo.quiet_until == (quiet_until if polls == 0 else 491)


@pytest.mark.parametrize("starts_before, ends_before, right_quiet_until, passes", [
    (9000, 4500, math.inf, 0), (9000, 4501, math.inf, 1),  # the pass would end on the next event
    (3000, math.inf, math.inf, 0), (3001, math.inf, math.inf, 1),  # it would start on duration_ms
    (9000, math.inf, 4490, 0), (9000, math.inf, 4491, 1),  # its last poll falls on quiet_until
    (9000, math.inf, 0, 0),  # a source that holds a target
    (6001, math.inf, math.inf, 3),
])
def test_a_quiet_pass_is_booked_only_when_it_keeps_every_bound(starts_before, ends_before,
                                                                right_quiet_until, passes):
    # A pass from 3000 ms has rounds ending at 3500, 4000 and 4500 ms; the
    # right round's last poll falls at 4490 ms.  The passes after it start
    # 1500 ms apart.
    echoes = constant_echoes({})
    for echo, quiet_until in zip(echoes, (math.inf, math.inf, right_quiet_until)):
        echo.quiet_until = quiet_until
    clock = VirtualClock()
    clock.advance(3000)
    booked = book_quiet_passes(echoes, clock, starts_before, ends_before)
    assert booked == [(3000 + 1500 * p + end, channel) for p in range(passes)
                      for end, channel in zip((500, 1000, 1500), Channel)]
    assert clock.now() == 3000 + 1500 * passes


def test_tick_gives_each_channel_its_own_threshold():
    # Distinct thresholds in one config: 50 cm sits under the side ones only,
    # 70 cm under the right one only.
    cfg = FirmwareConfig(ground_alert_cm=40, left_alert_cm=60, right_alert_cm=80)
    for cm, alerts in ((50, [False, True, True]), (70, [False, False, True]),
                       (30, [True, True, True]), (90, [False, False, False])):
        echoes = constant_echoes(dict.fromkeys(Channel, cm))
        rounds = firmware_tick(FirmwareState(), echoes, VirtualClock(), cfg)
        assert [r[CHANNEL] for r in rounds] == list(Channel)
        assert [r[DISTANCE_CM] for r in rounds] == [cm] * 3
        assert [r[ALERTING] for r in rounds] == alerts
        assert [r[FRAME] for r in rounds] == [FRAMES[c] if a else None
                                              for c, a in zip(Channel, alerts)]


def test_tick_measures_channels_in_fixed_order():
    state = FirmwareState()
    clock = VirtualClock()
    echoes = constant_echoes({Channel.GROUND: 90, Channel.LEFT: 90, Channel.RIGHT: 90})
    rounds = firmware_tick(state, echoes, clock)
    assert [r[CHANNEL] for r in rounds] == [Channel.GROUND, Channel.LEFT, Channel.RIGHT]
    assert [r[T_MS] for r in rounds] == [90, 180, 270]
    assert [r[DISTANCE_CM] for r in rounds] == [90, 90, 90]


@pytest.mark.parametrize(
    "channel,distance,alerts",
    [
        (Channel.GROUND, 59, True),
        (Channel.GROUND, 60, False),
        (Channel.GROUND, 16, True),
        (Channel.LEFT, 99, True),
        (Channel.LEFT, 100, False),
        (Channel.RIGHT, 99, True),
        (Channel.RIGHT, 100, False),
    ],
)
def test_classify_thresholds_are_strict(channel, distance, alerts):
    # The tick classifies each round's distance against its channel's threshold.
    rounds = firmware_tick(FirmwareState(), constant_echoes({channel: distance}), VirtualClock())
    (measured,) = [r for r in rounds if r[CHANNEL] is channel]
    assert measured[DISTANCE_CM] == distance
    assert measured[ALERTING] is alerts
    assert measured[MOTOR_CHANGED] is alerts  # from off
    assert measured[FRAME] == (FRAMES[channel] if alerts else None)


@pytest.mark.parametrize("edge_cm", [GATE_LOW_CM, FirmwareConfig().ground_alert_cm,
                                     FirmwareConfig().left_alert_cm, GATE_HIGH_CM])
def test_inline_conversion_and_median_agree_with_their_public_names(edge_cm):
    # acquire_distance banks pulse counts and converts only their median, and
    # firmware_tick holds the thresholds in a tuple: at every pulse count
    # within 1 cm of each gate end and alert threshold, each channel's round
    # gives what pulses_to_cm, gate_valid and median9 give, and alerts
    # strictly below its threshold.
    cfg = FirmwareConfig()
    thresholds = {Channel.GROUND: cfg.ground_alert_cm, Channel.LEFT: cfg.left_alert_cm,
                  Channel.RIGHT: cfg.right_alert_cm}
    for pulses in range((edge_cm - 1) * PULSES_PER_CM, (edge_cm + 1) * PULSES_PER_CM + 1):
        cm = pulses_to_cm(pulses)
        expected = median9([cm] * cfg.samples_per_measurement) if gate_valid(cm) else None
        echoes = [ScriptedSensor([pulses], repeat_last=True) for _ in Channel]
        for r in firmware_tick(FirmwareState(), echoes, VirtualClock(), cfg):
            assert (r[DISTANCE_CM], r[ALERTING]) == (
                expected, expected is not None and expected < thresholds[r[CHANNEL]]), pulses


def test_classify_monotone_in_distance():
    # If d alerts, every valid shorter distance alerts too.
    for channel in Channel:
        alerted = []
        for d in range(16, 645):
            rounds = firmware_tick(FirmwareState(), constant_echoes({channel: d}), VirtualClock())
            alerted.append(next(r[ALERTING] for r in rounds if r[CHANNEL] is channel))
        assert alerted == sorted(alerted, reverse=True)
