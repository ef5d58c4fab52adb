"""Microcontroller logic of the wearable, reproduced cycle-for-cycle.

Each measurement takes nine gated echo samples 10 ms apart and keeps their
median; a distance below the per-direction threshold raises an alert, starts
the vibration motor, and sends a one-word frame down the serial link to the
handset.  All timing is driven by the shared virtual clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .clock import VirtualClock
from .link import FRAME_DELIMITER, ObstacleMessage
from .world import (
    Channel,
    ChannelEcho,
    GATE_HIGH_CM,
    GATE_LOW_CM,
    PULSES_PER_CM,
)

# The rangefinder of one channel, one segment at a time: segment(t_ms) gives
# (draw, until_ms), draw being None while there is no echo.  draw() takes one
# reading; a draw may also carry a take that draws many (world.echo_sampler's
# does).  See acquire_distance, and world.ChannelEcho for firmware_tick's sources.
SegmentLookup = Callable[[int], tuple[Optional[Callable[[], int]], float]]


class NoEchoError(RuntimeError):
    """A measurement round ran out of poll attempts before nine valid samples."""

    def __init__(self, channel: Channel, attempts: int) -> None:
        self.channel = channel
        self.attempts = attempts

    def __str__(self) -> str:  # built only when read: most empty rounds are never printed
        return f"no usable echo on {self.channel.value} after {self.attempts} polls"


@dataclass(frozen=True)
class FirmwareConfig:
    """Tunable policy of the sensing firmware.

    The defaults mirror the deployed device: nine samples per measurement
    taken 10 ms apart, ground alerts under 60 cm and side alerts under
    100 cm, with an alert frame repeated no more often than every two
    seconds while the condition persists.  The rangefinder is not tunable:
    see world.PULSES_PER_CM, GATE_LOW_CM and GATE_HIGH_CM.
    """

    samples_per_measurement: int = 9
    sample_period_ms: int = 10
    ground_alert_cm: int = 60
    left_alert_cm: int = 100
    right_alert_cm: int = 100
    max_sample_attempts: int = 50
    repeat_interval_ms: int = 2000

    def __post_init__(self) -> None:
        if not GATE_LOW_CM < self.ground_alert_cm < GATE_HIGH_CM:
            raise ValueError("ground alert threshold must sit inside the valid gate")
        if self.samples_per_measurement % 2 != 1 or self.samples_per_measurement < 1:
            raise ValueError("samples_per_measurement must be odd and positive")
        for name in ("sample_period_ms", "left_alert_cm", "right_alert_cm",
                     "max_sample_attempts", "repeat_interval_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_sample_attempts < self.samples_per_measurement:
            raise ValueError("max_sample_attempts must allow a full measurement")


def pulses_to_cm(pulses: int) -> int:
    """Convert a raw pulse count to whole centimetres, rounding half up."""
    if pulses < 0:
        raise ValueError("pulse count cannot be negative")
    return (2 * pulses + PULSES_PER_CM) // (2 * PULSES_PER_CM)


def gate_valid(distance_cm: int) -> bool:
    """True when a reading is strictly inside the trusted range."""
    return GATE_LOW_CM < distance_cm < GATE_HIGH_CM


def median9(samples: Sequence[int], cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """Median of exactly samples_per_measurement values (middle of the sorted run)."""
    n = cfg.samples_per_measurement
    if len(samples) != n:
        raise ValueError(f"median filter needs exactly {n} samples, got {len(samples)}")
    return sorted(samples)[n // 2]


def acquire_distance(channel: Channel, segment: SegmentLookup, clock: VirtualClock,
                     cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """Run one full measurement round on a channel.

    Polls the sensor every sample_period_ms, discarding missing echoes and
    readings outside the gate, until samples_per_measurement valid readings
    are banked; returns their median.  Every poll costs one sample period of
    virtual time whether or not it produced a usable reading.  Raises
    NoEchoError when max_sample_attempts polls yield too few valid samples.
    Readings are banked raw, as a draw's take gives them (the float a poll
    rounds to its pulse count) or as pulse counts, and only their median is
    rounded and goes through pulses_to_cm: round and the conversion are
    monotone, so this gives median9 of the converted readings.

    segment(t_ms) gives (draw, until_ms) for the segment holding t_ms (see
    world.ChannelEcho): the polls from t_ms before until_ms draw from it.
    While draw is None, the round counts its attempts and moves the clock
    in one step.  A draw with a take (see world.echo_sampler) draws the
    segment's polls in one call, and the clock moves once by the polls it
    spent; any other draw is called once per poll, each reading checked
    by gate_valid and followed by one sample period.  Segments are looked
    up only at poll times with attempts left, so the result, clock and any
    error are those of polling one by one.  The clock is read once, at the
    start; each later poll time is what clock.advance returns.
    """
    period = cfg.sample_period_ms
    limit = cfg.max_sample_attempts
    needed = cfg.samples_per_measurement
    advance = clock.advance
    bank: list = []  # valid readings: raw floats from a take, else pulse counts
    attempts = 0
    t_ms = clock.now()
    while attempts < limit:
        draw, until = segment(t_ms)
        polls = limit - attempts
        if until != math.inf:  # the polls at t_ms, t_ms + period, ... before until
            polls = min(polls, -((t_ms - until) // period))
        attempts += polls
        if draw is None:
            t_ms = advance(polls * period)
            continue
        take = getattr(draw, "take", None)
        if take is not None:
            t_ms = advance(take(polls, bank, needed) * period)
        else:
            for _ in range(polls):
                pulses = draw()
                t_ms = advance(period)
                if gate_valid(pulses_to_cm(pulses)):
                    bank.append(pulses)
                    if len(bank) == needed:
                        break
        if len(bank) == needed:  # median9, rounded to pulses once
            bank.sort()
            return pulses_to_cm(round(bank[needed // 2]))
    raise NoEchoError(channel, attempts)


# The channels in the order a pass measures them, each with its alert frame:
# the channel's word plus the link delimiter.
_PASS_CHANNELS = tuple((channel, ObstacleMessage[channel.name].value.encode("ascii")
                        + FRAME_DELIMITER) for channel in Channel)


@dataclass
class FirmwareState:
    """Carry-over between firmware passes, one entry per channel in Channel
    order: when its alert last sent a frame, or None while the channel is
    not alerting."""

    last_frame_ms: list[Optional[int]] = field(default_factory=lambda: [None] * len(Channel))


def firmware_tick(state: FirmwareState, echoes: Sequence[ChannelEcho],
                  clock: VirtualClock,
                  cfg: FirmwareConfig = FirmwareConfig()) -> list[tuple]:
    """One pass of the firmware main loop: one round per channel, in Channel
    order (ground, then left, then right), each polling the echo source at
    its position in echoes.

    Each round gives (channel, t_ms, distance_cm, alerting, motor_changed,
    frame), t_ms being when it ended.  distance_cm is None when the round
    got no usable echo.  alerting: the distance is strictly below the
    channel's threshold, so the motor vibrates; motor_changed: alerting
    differs from the previous pass.  frame is sent on a fresh alert, and
    again once per repeat_interval_ms while the alert holds; else None.

    A round with nothing in range spends all max_sample_attempts polls.
    When every poll of a channel's round falls before its echo source's
    quiet_until, all of them fall in the empty segment the source already
    holds: the round is booked without calling acquire_distance (no echo,
    and the clock moved by the round's length), which is what polling
    gives, with no segment looked up early.  Whole passes of such rounds
    are booked in one step by book_quiet_passes.
    """
    last_frame_ms = state.last_frame_ms
    repeat_ms = cfg.repeat_interval_ms
    round_ms = cfg.max_sample_attempts * cfg.sample_period_ms
    last_poll_ms = round_ms - cfg.sample_period_ms  # from the round's start
    thresholds = (cfg.ground_alert_cm, cfg.left_alert_cm, cfg.right_alert_cm)  # Channel order
    rounds = []
    t_ms = clock.now()  # when the previous round ended: the next one starts then
    for i, (channel, message) in enumerate(_PASS_CHANNELS):
        last = last_frame_ms[i]
        if t_ms + last_poll_ms < echoes[i].quiet_until:
            t_ms = clock.advance(round_ms)
            distance: Optional[int] = None
        else:
            try:  # looked up on this module at each call, where it may be replaced
                distance = acquire_distance(channel, echoes[i].segment, clock, cfg)
            except NoEchoError:
                distance = None
            t_ms = clock.now()
        alerting = distance is not None and distance < thresholds[i]
        frame = None
        if not alerting:
            if last is not None:
                last_frame_ms[i] = None
        elif last is None or t_ms - last >= repeat_ms:
            frame = message
            last_frame_ms[i] = t_ms
        rounds.append((channel, t_ms, distance, alerting, alerting != (last is not None), frame))
    return rounds


def book_quiet_passes(echoes: Sequence[ChannelEcho], clock: VirtualClock, starts_before: int,
                      ends_before: float,
                      cfg: FirmwareConfig = FirmwareConfig()) -> list[tuple[int, Channel]]:
    """Book the whole passes from the clock's time on in which firmware_tick
    would book every round, each starting before starts_before and ending
    before ends_before: move the clock past them and return each round's
    (end time, channel) in time order; polled, each would get no echo.  Each
    round's last poll must fall before its echo source's quiet_until."""
    period = cfg.sample_period_ms
    round_ms = cfg.max_sample_attempts * period
    pass_ms = len(Channel) * round_ms
    # Round i of a pass ends round_ms * (i + 1) after the pass starts, and its
    # last poll comes one period before that.
    ends = [(round_ms * (i + 1), channel) for i, channel in enumerate(Channel)]
    latest = min(starts_before, ends_before - pass_ms,
                 *(echo.quiet_until - end + period for echo, (end, _) in zip(echoes, ends)))
    start = clock.now()
    passes = -((start - latest) // pass_ms)  # starts start, start + pass_ms, ... before latest
    if passes <= 0:
        return []
    clock.advance(passes * pass_ms)
    return [(pass_start + end, channel)
            for pass_start in range(start, start + passes * pass_ms, pass_ms)
            for end, channel in ends]


__all__ = [
    "NoEchoError", "FirmwareConfig", "FirmwareState", "pulses_to_cm", "gate_valid",
    "median9", "acquire_distance", "firmware_tick", "book_quiet_passes",
]
