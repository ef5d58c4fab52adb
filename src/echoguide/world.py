"""Simulated environment for the wearable: obstacle distances, surface and
weather conditions, walker position, provider availability, and the noisy
ultrasonic echo model.

A scenario script describes the whole world as piecewise timelines over a
virtual-millisecond axis.  Everything here is pure or driven by an explicitly
seeded random generator, so runs replay bit-for-bit.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from math import cos, log, sin, sqrt, tau
from typing import Callable, Optional, Sequence

from .errors import ConfigError, ScenarioError
from .jsonread import (
    INSTANT, LATITUDE, LONGITUDE, Rejected, bounded_rule, built_rule, list_rule, load_json,
    object_rule, parse_instant, read_json,
)

# Rangefinder characteristics shared by the world model and the firmware:
# the sensor emits 58 pulses per centimetre of range, and readings are
# trusted only strictly between these bounds.
PULSES_PER_CM = 58
GATE_LOW_CM = 15
GATE_HIGH_CM = 645


class Channel(Enum):
    """The three sensing directions of the wearable."""

    GROUND = "ground"
    LEFT = "left"
    RIGHT = "right"


class SurfaceKind(Enum):
    CONCRETE = "concrete"
    TILES = "tiles"


class Weather(Enum):
    DRY = "dry"
    WET = "wet"


@dataclass(frozen=True)
class NoiseParams:
    """Echo noise model for one (surface, weather) combination.

    rel_sigma    standard deviation of the multiplicative gaussian error,
                 relative to the true distance
    rel_bias     systematic relative offset (wet air/ground shifts readings)
    outlier_prob probability that a poll returns a spurious echo anywhere
                 inside the valid gate instead of a reading near the truth
    """

    rel_sigma: float = 0.0
    rel_bias: float = 0.0
    outlier_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rel_sigma < math.inf:  # nan fails too
            raise ConfigError("rel_sigma must be finite and >= 0")
        if not -1.0 < self.rel_bias < 1.0:
            raise ConfigError("rel_bias must be inside (-1, 1)")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ConfigError("outlier_prob must be inside [0, 1]")


Calibration = dict[tuple[SurfaceKind, Weather], NoiseParams]

# Default noise table.  Values were fitted by simulation so that the bundled
# distance-error experiment lands in the documented accuracy envelope:
# post-filter mean absolute percentage error of a few percent on dry ground,
# tiles cleaner than concrete, and wet conditions visibly worse than dry.
DEFAULT_CALIBRATION: Calibration = {
    (SurfaceKind.TILES, Weather.DRY): NoiseParams(0.065, 0.0, 0.03),
    (SurfaceKind.CONCRETE, Weather.DRY): NoiseParams(0.120, 0.0, 0.05),
    (SurfaceKind.TILES, Weather.WET): NoiseParams(0.130, 0.04, 0.06),
    (SurfaceKind.CONCRETE, Weather.WET): NoiseParams(0.190, 0.06, 0.08),
}


def noise_params_for(surface: SurfaceKind, weather: Weather,
                     calibration: Calibration) -> NoiseParams:
    """Look up the noise model for a condition; missing entries are config errors."""
    try:
        return calibration[(surface, weather)]
    except KeyError:
        raise ConfigError(
            f"calibration has no entry for surface={surface.value} weather={weather.value}"
        ) from None


# The gate in raw pulses: the counts p with gate_valid(pulses_to_cm(p)),
# 899 <= p <= 37,380, found by solving the round-half-up conversion at
# GATE_LOW_CM + 1 and GATE_HIGH_CM - 1.
_GATE_PULSES = (((2 * GATE_LOW_CM + 1) * PULSES_PER_CM + 1) // 2,
                ((2 * GATE_HIGH_CM - 1) * PULSES_PER_CM - 1) // 2)

# The same gate on a raw reading x, the float a poll rounds to its count:
# low <= round(x) <= high exactly when low - 0.5 < x <= high + 0.5.  round()
# sends a half to its even neighbour: low (899) is odd, so round(898.5) is
# 898, out, and high (37,380) is even, so round(37,380.5) is 37,380, in.
# Both halves are exact floats.  A measurement round banks raw readings on
# these bounds and rounds only their median.
_GATE_READING = (_GATE_PULSES[0] - 0.5, _GATE_PULSES[1] + 0.5)


def echo_sampler(true_cm: float, params: NoiseParams,
                 rng: random.Random) -> Callable[[], int]:
    """Polls of a target at true_cm: draw() is the raw pulse count the sensor
    reports for one poll.

    With probability outlier_prob the reading is a spurious echo drawn
    uniformly inside the valid gate; otherwise it is the true distance with
    relative bias and gaussian scatter applied, converted to pulses.  The
    terms that hold for the target are worked out once, in the same float
    operations, so the readings do not depend on how they are drawn.

    draw.take(polls, bank, needed) draws up to polls readings in one call,
    as that many draw() calls would, and appends to bank the raw reading
    (the float draw() rounds) of each one whose pulse count the firmware's
    gate passes, until bank holds needed; it returns the polls it spent.
    A measurement round draws a segment's polls this way and rounds only
    the median of its bank: round() is monotone, so that is the median of
    the pulse counts.
    """
    random_ = rng.random
    outlier_prob = params.outlier_prob
    biased_cm = true_cm * (1.0 + params.rel_bias)
    sigma_cm = params.rel_sigma * true_cm
    gate_cm = GATE_HIGH_CM - GATE_LOW_CM
    low, high = _GATE_READING

    def draw() -> int:
        if random_() < outlier_prob:
            # rng.uniform(GATE_LOW_CM, GATE_HIGH_CM)
            pulses = round((GATE_LOW_CM + gate_cm * random_()) * PULSES_PER_CM)
        else:
            # rng.gauss(0.0, sigma_cm), written out as Random.gauss does it,
            # keeping its second value in rng.gauss_next for the next call
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = random_() * tau
                g2rad = sqrt(-2.0 * log(1.0 - random_()))
                z = cos(x2pi) * g2rad
                rng.gauss_next = sin(x2pi) * g2rad
            pulses = round((biased_cm + (0.0 + z * sigma_cm)) * PULSES_PER_CM)
        return pulses if pulses > 1 else 1  # max(1, pulses) without the call

    def take(polls: int, bank: list[float], needed: int) -> int:
        # draw()'s operations up to its round(), with gauss's second value in
        # a local that is written back to rng.gauss_next on return.  The gate
        # rejects every count below 899, so the clamp to 1 pulse is left out.
        spare = rng.gauss_next
        banked = len(bank)
        for spent in range(1, polls + 1):
            if random_() < outlier_prob:
                x = (GATE_LOW_CM + gate_cm * random_()) * PULSES_PER_CM
            else:
                z = spare
                spare = None
                if z is None:
                    x2pi = random_() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - random_()))
                    z = cos(x2pi) * g2rad
                    spare = sin(x2pi) * g2rad
                x = (biased_cm + (0.0 + z * sigma_cm)) * PULSES_PER_CM
            if low < x <= high:
                bank.append(x)
                banked += 1
                if banked == needed:
                    rng.gauss_next = spare
                    return spent
        rng.gauss_next = spare
        return polls

    draw.take = take  # type: ignore[attr-defined]
    return draw


def sample_echo(true_cm: Optional[float], params: NoiseParams,
                rng: random.Random) -> Optional[int]:
    """One ultrasonic poll, as echo_sampler draws it; None when there is
    nothing in range to echo."""
    return None if true_cm is None else echo_sampler(true_cm, params, rng)()


class StepTimeline:
    """Piecewise-constant timeline: each step's value holds until the next step."""

    def __init__(self, steps: Sequence[tuple[int, object]]) -> None:
        if not steps:
            raise ScenarioError("timeline must have at least one step")
        self.times = [int(t) for t, _ in steps]
        self.values = [v for _, v in steps]
        if self.times[0] != 0:
            raise ScenarioError("timeline must start at t=0")
        for a, b in zip(self.times, self.times[1:]):
            if b <= a:
                raise ScenarioError("timeline step times must be strictly increasing")

    def at(self, t_ms: int) -> object:
        return self.step_at(t_ms)[0]

    def step_at(self, t_ms: int) -> tuple[object, Optional[int]]:
        """The value at t_ms and the time of the next step (None after the last)."""
        if t_ms < 0:
            raise ScenarioError("timeline queried at negative time")
        i = bisect_right(self.times, t_ms)
        return self.values[i - 1], self.times[i] if i < len(self.times) else None


class GeoPath:
    """Waypoint path with linear interpolation; holds the last point afterwards."""

    def __init__(self, waypoints: Sequence[tuple[int, float, float]]) -> None:
        if not waypoints:
            raise ScenarioError("geo_path must have at least one waypoint")
        self.times = [int(t) for t, _, _ in waypoints]
        self.lats = [float(lat) for _, lat, _ in waypoints]
        self.lons = [float(lon) for _, _, lon in waypoints]
        if self.times[0] != 0:
            raise ScenarioError("geo_path must start at t=0")
        for a, b in zip(self.times, self.times[1:]):
            if b <= a:
                raise ScenarioError("geo_path times must be strictly increasing")

    def at(self, t_ms: int) -> tuple[float, float]:
        if t_ms < 0:
            raise ScenarioError("geo_path queried at negative time")
        i = bisect_right(self.times, t_ms) - 1
        if i == len(self.times) - 1:
            return self.lats[i], self.lons[i]
        t0, t1 = self.times[i], self.times[i + 1]
        frac = (t_ms - t0) / (t1 - t0)
        lat = self.lats[i] + frac * (self.lats[i + 1] - self.lats[i])
        lon = self.lons[i] + frac * (self.lons[i + 1] - self.lons[i])
        return lat, lon


@dataclass(frozen=True)
class UserEvent:
    """A scripted interaction with the handset: button press or spoken text."""

    t_ms: int
    kind: str  # "button" | "utterance"
    text: str = ""


@dataclass
class ScenarioScript:
    """Complete deterministic description of one simulated walk; each
    timeline is read with its own at(t_ms)."""

    duration_ms: int
    seed: int
    channels: dict[Channel, StepTimeline]
    surface: StepTimeline
    weather: StepTimeline
    geo: GeoPath
    gps: StepTimeline
    network: StepTimeline
    server: StepTimeline
    user_events: list[UserEvent] = field(default_factory=list)
    start_epoch_s: int = 0
    name: str = "scenario"

    def __post_init__(self) -> None:
        # Past duration_ms the world holds its final state while the last
        # measurement round of a run drains.  With no step after duration_ms,
        # a plain lookup gives exactly that.  Errors name the scenario field.
        timelines = {f"channels.{c.value}": timeline for c, timeline in self.channels.items()}
        timelines.update(surface=self.surface, weather=self.weather, geo_path=self.geo,
                         gps_available=self.gps, network_available=self.network,
                         server_available=self.server)
        for key, timeline in timelines.items():
            if timeline.times[-1] > self.duration_ms:
                raise ScenarioError(f"{key}[{len(timeline.times) - 1}].t: a step at "
                                    f"t={timeline.times[-1]} comes after duration_ms")
        events = self.user_events
        for i, event in enumerate(events):
            if event.t_ms > self.duration_ms or (i > 0 and event.t_ms <= events[i - 1].t_ms):
                raise ScenarioError(f"user_events[{i}].t: must increase strictly and "
                                    f"not pass duration_ms")


class ChannelEcho:
    """The rangefinder of one channel in a scripted world, one segment at a time.

    The channel's true distance and noise params hold for a segment: up to
    the next step of the channel, surface or weather timeline.  They are
    looked up when a poll first falls in a segment (so a calibration gap
    raises ConfigError at the first poll in it, empty channel or not) and
    reused until a later poll leaves it.  Past duration_ms the world holds its
    final state, so the last segment never ends.  quiet_until: the held
    segment's end while it is empty (math.inf for the last one), else 0.

    `sample` draws one reading from (true distance, params, rng), as
    sample_echo does.  For sample_echo itself a segment draws through one
    echo_sampler closure, whose take draws a round's polls in the segment
    in one call; any other `sample` is called once per poll, through a
    draw with no take.
    """

    def __init__(self, script: ScenarioScript, channel: Channel, calibration: Calibration,
                 rng: random.Random, sample=sample_echo) -> None:
        self._timelines = (script.channels[channel], script.surface, script.weather)
        self._calibration = calibration
        self._rng = rng
        self._sample = sample
        self._until: float = 0  # the current segment's end; time never goes back
        self.quiet_until: float = 0
        self._truth: tuple = (None, None, None)  # its (true_cm, surface, weather)
        self._segment: tuple = (None, 0)  # cached (draw, until)

    def segment(self, t_ms: int) -> tuple[Optional[Callable[[], int]], float]:
        """(draw, until_ms) for the segment holding t_ms.  draw() takes one
        reading, or is None while the channel is empty; until_ms is the
        segment's end, math.inf for the last one."""
        if t_ms >= self._until:
            steps = [timeline.step_at(t_ms) for timeline in self._timelines]
            (true_cm, _), (surface, _), (weather, _) = steps
            params = noise_params_for(surface, weather, self._calibration)
            if true_cm is None:
                draw = None
            elif self._sample is sample_echo:
                draw = echo_sampler(true_cm, params, self._rng)
            else:
                # Called per poll, with no take: perfbench's traced run
                # counts polls by wrapping harness.sample_echo.  This path
                # goes once runs count their own polls (ROADMAP items 1 and 6).
                draw = partial(self._sample, true_cm, params, self._rng)
            self._until = min((nxt for _, nxt in steps if nxt is not None), default=math.inf)
            self.quiet_until = self._until if draw is None else 0
            self._truth = (true_cm, surface, weather)
            self._segment = (draw, self._until)
        return self._segment

    def truth_at(self, t_ms: int) -> tuple:
        """(true_cm, surface, weather) at t_ms, the end of a round that drew from
        the current segment: the segment's own before its end, else looked up."""
        if t_ms < self._until:
            return self._truth
        channel, surface, weather = self._timelines
        return channel.at(t_ms), surface.at(t_ms), weather.at(t_ms)


# ---------------------------------------------------------------------------
# Scenario file parsing.  The on-disk form is a single JSON document; see
# README for the schema.
# ---------------------------------------------------------------------------


_TIME = bounded_rule(int, 0, math.inf, "must be >= 0")


def _in_range_cm(cm: float) -> float:
    if not 0 < cm <= 1000:
        raise ValueError("must be in (0, 1000] cm")
    return cm


_DISTANCE_CM = built_rule(float, _in_range_cm)


def _distance(value: object) -> Optional[float]:
    return None if value is None else _DISTANCE_CM(value)


def _steps(value_key: str, kind):
    entry = object_rule({"t": _TIME, value_key: kind}, required=("t", value_key))
    return built_rule(list_rule(entry),
                      lambda steps: StepTimeline([(s["t"], s[value_key]) for s in steps]))


_EVENT_FIELDS = object_rule({"t": _TIME, "kind": str, "text": str}, required=("t", "kind"))


def _user_event(value: object) -> UserEvent:
    event = _EVENT_FIELDS(value)
    if event["kind"] == "button":
        return UserEvent(event["t"], "button")
    if event["kind"] != "utterance":
        raise Rejected("must be 'button' or 'utterance'", ".kind")
    if not event.get("text", " ").strip():
        raise Rejected("must be a non-empty string", ".text")
    return UserEvent(event["t"], "utterance", event["text"])


_WAYPOINT = object_rule({"t": _TIME, "lat": LATITUDE, "lon": LONGITUDE},
                        required=("t", "lat", "lon"))
_SCENARIO = object_rule({
    "schema_version": bounded_rule(int, 1, 1, "must be 1"),
    "duration_ms": bounded_rule(int, 1, math.inf, "must be >= 1"),
    "seed": bounded_rule(int, 0, math.inf, "must be >= 0"),
    "start_utc": built_rule(INSTANT, lambda text: int(parse_instant(text).timestamp())),
    "channels": object_rule({c.value: _steps("distance_cm", _distance) for c in Channel}),
    "surface": _steps("value", SurfaceKind),
    "weather": _steps("value", Weather),
    "geo_path": built_rule(list_rule(_WAYPOINT), lambda points: GeoPath(
        [(p["t"], p["lat"], p["lon"]) for p in points])),
    "gps_available": _steps("value", bool),
    "network_available": _steps("value", bool),
    "server_available": _steps("value", bool),
    "user_events": list_rule(_user_event),
}, required=("schema_version", "duration_ms"))

_DEFAULT_START_EPOCH_S = 1_433_116_800  # 2015-06-01T00:00:00Z
_LAST_EPOCH_S = 253_402_300_799  # 9999-12-31T23:59:59Z, the last instant a fix can name


def scenario_from_dict(doc: dict, name: str = "scenario") -> ScenarioScript:
    fields = read_json(doc, _SCENARIO, ScenarioError, "scenario")
    duration_ms = fields["duration_ms"]
    start_epoch_s = fields.get("start_utc", _DEFAULT_START_EPOCH_S)
    if start_epoch_s + duration_ms // 1000 > _LAST_EPOCH_S:
        raise ScenarioError("start_utc: the walk must end by 9999-12-31T23:59:59Z")
    channels = fields.get("channels", {})
    return ScenarioScript(
        duration_ms=duration_ms,
        seed=fields.get("seed", 0),
        channels={channel: channels.get(channel.value) or StepTimeline([(0, None)])
                  for channel in Channel},
        surface=fields.get("surface") or StepTimeline([(0, SurfaceKind.TILES)]),
        weather=fields.get("weather") or StepTimeline([(0, Weather.DRY)]),
        geo=fields.get("geo_path") or GeoPath([(0, 0.0, 0.0)]),
        gps=fields.get("gps_available") or StepTimeline([(0, True)]),
        network=fields.get("network_available") or StepTimeline([(0, True)]),
        server=fields.get("server_available") or StepTimeline([(0, True)]),
        user_events=fields.get("user_events", []),
        start_epoch_s=start_epoch_s,
        name=name,
    )


def load_scenario(path: "str | os.PathLike[str]") -> ScenarioScript:
    """Read and validate a scenario script from a JSON file."""
    name = os.path.basename(path).removesuffix(".json")
    return load_json(path, ScenarioError, lambda doc: scenario_from_dict(doc, name=name))


def utc_string(epoch_s: int) -> str:
    """Render epoch seconds as the canonical ISO-8601 'Z' form."""
    # isoformat, not strftime: strftime gives years before 1000 fewer than four digits.
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).isoformat()[:-len("+00:00")] + "Z"


__all__ = [
    "PULSES_PER_CM", "GATE_LOW_CM", "GATE_HIGH_CM",
    "Channel", "SurfaceKind", "Weather", "NoiseParams", "Calibration",
    "DEFAULT_CALIBRATION", "noise_params_for",
    "echo_sampler", "sample_echo", "StepTimeline", "GeoPath", "ScenarioScript", "ChannelEcho",
    "scenario_from_dict", "load_scenario", "utc_string",
]
