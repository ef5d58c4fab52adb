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
from .link import FRAME_DELIMITER
from .world import (
    Channel,
    GATE_HIGH_CM,
    GATE_LOW_CM,
    PULSES_PER_CM,
)

# One poll of the rangefinder: a raw pulse count, or None when no echo returned.
# A source may also have an empty_until method; see acquire_distance.
EchoSource = Callable[[], Optional[int]]


class NoEchoError(RuntimeError):
    """A measurement round ran out of poll attempts before nine valid samples."""

    def __init__(self, channel: Channel, attempts: int) -> None:
        super().__init__(f"no usable echo on {channel.value} after {attempts} polls")
        self.channel = channel
        self.attempts = attempts


@dataclass(frozen=True)
class FirmwareConfig:
    """Tunable constants of the sensing firmware.

    The defaults mirror the deployed device: 58 pulses per centimetre, nine
    samples per measurement taken 10 ms apart, echoes trusted strictly
    between 15 and 645 cm, ground alerts under 60 cm and side alerts under
    100 cm, with an alert frame repeated no more often than every two
    seconds while the condition persists.
    """

    pulses_per_cm: int = PULSES_PER_CM
    samples_per_measurement: int = 9
    sample_period_ms: int = 10
    gate_low_cm: int = GATE_LOW_CM
    gate_high_cm: int = GATE_HIGH_CM
    ground_alert_cm: int = 60
    left_alert_cm: int = 100
    right_alert_cm: int = 100
    max_sample_attempts: int = 50
    repeat_interval_ms: int = 2000

    def __post_init__(self) -> None:
        if not self.gate_low_cm < self.ground_alert_cm < self.gate_high_cm:
            raise ValueError("ground alert threshold must sit inside the valid gate")
        if self.samples_per_measurement % 2 != 1 or self.samples_per_measurement < 1:
            raise ValueError("samples_per_measurement must be odd and positive")
        for name in ("pulses_per_cm", "sample_period_ms",
                     "gate_low_cm", "ground_alert_cm", "left_alert_cm",
                     "right_alert_cm", "max_sample_attempts", "repeat_interval_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_sample_attempts < self.samples_per_measurement:
            raise ValueError("max_sample_attempts must allow a full measurement")

    def alert_threshold_cm(self, channel: Channel) -> int:
        if channel is Channel.GROUND:
            return self.ground_alert_cm
        if channel is Channel.LEFT:
            return self.left_alert_cm
        return self.right_alert_cm


def pulses_to_cm(pulses: int, cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """Convert a raw pulse count to whole centimetres, rounding half up."""
    if pulses < 0:
        raise ValueError("pulse count cannot be negative")
    ppc = cfg.pulses_per_cm
    return (2 * pulses + ppc) // (2 * ppc)


def gate_valid(distance_cm: int, cfg: FirmwareConfig = FirmwareConfig()) -> bool:
    """True when a reading is strictly inside the trusted range."""
    return cfg.gate_low_cm < distance_cm < cfg.gate_high_cm


def median9(samples: Sequence[int], cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """Median of exactly samples_per_measurement values (middle of the sorted run)."""
    n = cfg.samples_per_measurement
    if len(samples) != n:
        raise ValueError(f"median filter needs exactly {n} samples, got {len(samples)}")
    return sorted(samples)[n // 2]


def acquire_distance(channel: Channel, sensor: EchoSource, clock: VirtualClock,
                     cfg: FirmwareConfig = FirmwareConfig()) -> int:
    """Run one full measurement round on a channel.

    Polls the sensor every sample_period_ms, discarding missing echoes and
    readings outside the gate, until samples_per_measurement valid readings
    are banked; returns their median.  Every poll costs one sample period of
    virtual time whether or not it produced a usable reading.  Raises
    NoEchoError when max_sample_attempts polls yield too few valid samples.

    After a missing echo, a sensor with an empty_until(t_ms) method (see
    world.ChannelEcho) says how long the channel stays empty.  The polls
    that would fall in that run are accounted in closed form: they count as
    attempts and move the clock one sample period each, but the sensor is
    not called for them.  The result, the clock and any NoEchoError are
    those of polling one by one.
    """
    period = cfg.sample_period_ms
    limit = cfg.max_sample_attempts
    empty_until = getattr(sensor, "empty_until", None)
    valid: list[int] = []
    attempts = 0
    while len(valid) < cfg.samples_per_measurement:
        if attempts >= limit:
            raise NoEchoError(channel, attempts)
        pulses = sensor()
        attempts += 1
        clock.advance(period)
        if pulses is None:
            # Only while polls remain: a lookup at a time never polled could raise.
            if empty_until is not None and attempts < limit:
                now = clock.now()
                until = empty_until(now)
                # The polls at now, now + period, ... that fall before `until`.
                skipped = limit - attempts
                if until != math.inf:
                    skipped = min(skipped, -((now - until) // period))
                attempts += skipped
                clock.advance(skipped * period)
            continue
        distance = pulses_to_cm(pulses, cfg)
        if gate_valid(distance, cfg):
            valid.append(distance)
    return median9(valid, cfg)


_CHANNEL_TOKENS = {
    Channel.GROUND: "Ground",
    Channel.LEFT: "Left",
    Channel.RIGHT: "Right",
}


def encode_message(channel: Channel) -> bytes:
    """Wire frame for an alert on a channel: the channel word plus the link delimiter."""
    return _CHANNEL_TOKENS[channel].encode("ascii") + FRAME_DELIMITER


@dataclass(frozen=True)
class ChannelRound:
    """What one channel's measurement round in a firmware pass produced.

    distance_cm is None when the round got no usable echo.  alerting: the
    distance is strictly below the channel's threshold, so the motor
    vibrates; motor_changed: alerting differs from the previous pass.
    frame is sent on a fresh alert, and again once per repeat_interval_ms
    while the alert holds.
    """

    channel: Channel
    t_ms: int
    distance_cm: Optional[int]
    alerting: bool
    motor_changed: bool
    frame: Optional[bytes]


@dataclass
class FirmwareState:
    """Carry-over between firmware passes: when each channel's alert last
    sent a frame, or None while the channel is not alerting."""

    last_frame_ms: dict[Channel, Optional[int]] = field(
        default_factory=lambda: dict.fromkeys(Channel)
    )


def firmware_tick(state: FirmwareState, echoes: dict[Channel, EchoSource],
                  clock: VirtualClock,
                  cfg: FirmwareConfig = FirmwareConfig()) -> list[ChannelRound]:
    """One pass of the firmware main loop: one round per channel, in Channel
    order (ground, then left, then right)."""
    rounds = []
    for channel in Channel:
        last = state.last_frame_ms[channel]
        try:
            distance: Optional[int] = acquire_distance(channel, echoes[channel], clock, cfg)
        except NoEchoError:
            distance = None
        t_ms = clock.now()
        alerting = distance is not None and distance < cfg.alert_threshold_cm(channel)
        frame = None
        if not alerting:
            state.last_frame_ms[channel] = None
        elif last is None or t_ms - last >= cfg.repeat_interval_ms:
            frame = encode_message(channel)
            state.last_frame_ms[channel] = t_ms
        rounds.append(ChannelRound(channel, t_ms, distance, alerting,
                                   motor_changed=alerting != (last is not None), frame=frame))
    return rounds


__all__ = [
    "NoEchoError", "FirmwareConfig", "ChannelRound", "FirmwareState", "pulses_to_cm",
    "gate_valid", "median9", "acquire_distance", "encode_message", "firmware_tick",
]
