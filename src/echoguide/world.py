"""Simulated environment for the wearable: obstacle distances, surface and
weather conditions, walker position, provider availability, and the noisy
ultrasonic echo model.

A scenario script describes the whole world as piecewise timelines over a
virtual-millisecond axis.  Everything here is pure or driven by an explicitly
seeded random generator, so runs replay bit-for-bit.
"""

from __future__ import annotations

import json
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Optional, Sequence

from .clock import VirtualClock
from .errors import ConfigError, ScenarioError

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

    rel_sigma: float
    rel_bias: float
    outlier_prob: float

    def __post_init__(self) -> None:
        if self.rel_sigma < 0:
            raise ConfigError("rel_sigma must be >= 0")
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


def check_calibration_ordering(calibration: Calibration) -> None:
    """Validate the physical ordering a realistic table must satisfy.

    Tiles scatter less than concrete under the same weather, and wet
    conditions are strictly noisier and more biased than dry ones.  Applied
    to the default table; hand-written tables (e.g. zero-noise test
    profiles) are free to violate it.
    """
    for weather in Weather:
        tiles = calibration[(SurfaceKind.TILES, weather)]
        concrete = calibration[(SurfaceKind.CONCRETE, weather)]
        if not tiles.rel_sigma < concrete.rel_sigma:
            raise ConfigError(f"tiles must scatter less than concrete when {weather.value}")
    for surface in SurfaceKind:
        dry = calibration[(surface, Weather.DRY)]
        wet = calibration[(surface, Weather.WET)]
        if not wet.rel_sigma > dry.rel_sigma:
            raise ConfigError(f"wet rel_sigma must exceed dry for {surface.value}")
        if not abs(wet.rel_bias) > abs(dry.rel_bias):
            raise ConfigError(f"wet |rel_bias| must exceed dry for {surface.value}")
    # Dry readings on any surface are cleaner than wet readings on every surface.
    worst_dry = calibration[(SurfaceKind.CONCRETE, Weather.DRY)].rel_sigma
    for surface in SurfaceKind:
        if not calibration[(surface, Weather.WET)].rel_sigma >= worst_dry:
            raise ConfigError("every wet entry must scatter at least as much as dry concrete")


check_calibration_ordering(DEFAULT_CALIBRATION)


def noise_params_for(surface: SurfaceKind, weather: Weather,
                     calibration: Calibration) -> NoiseParams:
    """Look up the noise model for a condition; missing entries are config errors."""
    try:
        return calibration[(surface, weather)]
    except KeyError:
        raise ConfigError(
            f"calibration has no entry for surface={surface.value} weather={weather.value}"
        ) from None


def sample_echo(true_cm: Optional[float], params: NoiseParams,
                rng: random.Random) -> Optional[int]:
    """One ultrasonic poll: the raw pulse count the sensor would report.

    Returns None when there is nothing in range to echo.  With probability
    outlier_prob the reading is a spurious echo drawn uniformly inside the
    valid gate; otherwise it is the true distance with relative bias and
    gaussian scatter applied, converted to pulses.
    """
    if true_cm is None:
        return None
    if rng.random() < params.outlier_prob:
        ghost_cm = rng.uniform(GATE_LOW_CM, GATE_HIGH_CM)
        return max(1, round(ghost_cm * PULSES_PER_CM))
    noisy_cm = true_cm * (1.0 + params.rel_bias) + rng.gauss(0.0, params.rel_sigma * true_cm)
    return max(1, round(noisy_cm * PULSES_PER_CM))


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


DEFAULT_START_UTC = "2015-06-01T00:00:00Z"
SCENARIO_SCHEMA_VERSION = 1


@dataclass
class ScenarioScript:
    """Complete deterministic description of one simulated walk."""

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
        # a plain lookup gives exactly that.  The parser already rejects such
        # a step, naming its field; this guards scripts built in code.
        for timeline in (*self.channels.values(), self.surface, self.weather, self.geo,
                         self.gps, self.network, self.server):
            if timeline.times[-1] > self.duration_ms:
                raise ScenarioError(f"a timeline has a step at t={timeline.times[-1]}, "
                                    f"after duration_ms={self.duration_ms}")

    # -- accessors ---------------------------------------------------------

    def distance_cm_at(self, channel: Channel, t_ms: int) -> Optional[float]:
        return self.channels[channel].at(t_ms)  # type: ignore[return-value]

    def surface_at(self, t_ms: int) -> SurfaceKind:
        return self.surface.at(t_ms)  # type: ignore[return-value]

    def weather_at(self, t_ms: int) -> Weather:
        return self.weather.at(t_ms)  # type: ignore[return-value]

    def position_at(self, t_ms: int) -> tuple[float, float]:
        return self.geo.at(t_ms)

    def gps_at(self, t_ms: int) -> bool:
        return bool(self.gps.at(t_ms))

    def network_at(self, t_ms: int) -> bool:
        return bool(self.network.at(t_ms))

    def server_at(self, t_ms: int) -> bool:
        return bool(self.server.at(t_ms))


class ChannelEcho:
    """The rangefinder of one channel in a scripted world, polled at the clock's time.

    The channel's true distance and noise params hold for a segment: up to
    the next step of the channel, surface or weather timeline.  They are
    looked up when a poll first falls in a segment (so a calibration gap
    raises ConfigError at the first poll in it, empty channel or not) and
    reused until the clock leaves it.  Past duration_ms the world holds its
    final state, so the last segment never ends.

    `sample` draws one reading from (true distance, params, rng), as
    sample_echo does.
    """

    def __init__(self, script: ScenarioScript, channel: Channel, calibration: Calibration,
                 rng: random.Random, clock: VirtualClock, sample=sample_echo) -> None:
        self._timelines = (script.channels[channel], script.surface, script.weather)
        self._calibration = calibration
        self._rng = rng
        self._clock = clock
        self._sample = sample
        self._true_cm: Optional[float] = None
        self._params: Optional[NoiseParams] = None
        self._until_ms: float = 0  # the cached segment ends here; the clock never goes back

    def _enter(self, t_ms: int) -> None:
        steps = [timeline.step_at(t_ms) for timeline in self._timelines]
        (true_cm, _), (surface, _), (weather, _) = steps
        self._params = noise_params_for(surface, weather, self._calibration)
        self._true_cm = true_cm  # type: ignore[assignment]
        self._until_ms = min((nxt for _, nxt in steps if nxt is not None), default=math.inf)

    def __call__(self) -> Optional[int]:
        t_ms = self._clock.now()
        if t_ms >= self._until_ms:
            self._enter(t_ms)
        if self._true_cm is None:
            return None
        return self._sample(self._true_cm, self._params, self._rng)

    def empty_until(self, t_ms: int) -> float:
        """The first time at or after t_ms at which the channel may have a
        target: t_ms itself when it has one, math.inf when it stays empty."""
        if t_ms >= self._until_ms:
            self._enter(t_ms)
        return t_ms if self._true_cm is not None else self._until_ms


# ---------------------------------------------------------------------------
# Scenario file parsing.  The on-disk form is a single JSON document; see
# README for the schema.  Validation errors name the offending field.
# ---------------------------------------------------------------------------


def _fail(path: str, msg: str) -> None:
    raise ScenarioError(f"{path}: {msg}")


def _require_int(value: object, path: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, "must be an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    return int(value)  # type: ignore[arg-type]


def _parse_steps(raw: object, path: str, duration_ms: int, value_key: str,
                 parse_value) -> StepTimeline:
    if not isinstance(raw, list) or not raw:
        _fail(path, "must be a non-empty list of steps")
    steps = []
    for i, entry in enumerate(raw):  # type: ignore[union-attr]
        here = f"{path}[{i}]"
        if not isinstance(entry, dict):
            _fail(here, "must be an object")
        t = _require_int(entry.get("t"), f"{here}.t", minimum=0)
        if t > duration_ms:
            _fail(f"{here}.t", "must not exceed duration_ms")
        if value_key not in entry:
            _fail(here, f"missing '{value_key}'")
        steps.append((t, parse_value(entry[value_key], f"{here}.{value_key}")))
    try:
        return StepTimeline(steps)
    except ScenarioError as exc:
        _fail(path, str(exc))
        raise AssertionError  # unreachable


def _parse_distance(value: object, path: str):
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, "must be a number or null")
    if not 0 < float(value) <= 1000:
        _fail(path, "must be in (0, 1000] cm")
    return float(value)


def _parse_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, "must be true or false")
    return bool(value)


def _parse_enum(enum_cls, value: object, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        _fail(path, f"must be one of: {allowed}")


def parse_start_utc(text: object, path: str = "start_utc") -> int:
    """Parse an ISO-8601 UTC instant with 'Z' suffix into epoch seconds."""
    if not isinstance(text, str) or not text.endswith("Z"):
        _fail(path, "must be an ISO-8601 UTC string ending in 'Z'")
    try:
        dt = datetime.fromisoformat(text[:-1] + "+00:00")  # type: ignore[index]
    except ValueError:
        _fail(path, "is not a valid ISO-8601 instant")
        raise AssertionError
    return int(dt.timestamp())


def scenario_from_dict(doc: dict, name: str = "scenario") -> ScenarioScript:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be a JSON object")
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        _fail("schema_version", f"must be {SCENARIO_SCHEMA_VERSION}")
    duration_ms = _require_int(doc.get("duration_ms"), "duration_ms", minimum=1)
    seed = _require_int(doc.get("seed", 0), "seed", minimum=0)

    raw_channels = doc.get("channels", {})
    if not isinstance(raw_channels, dict):
        _fail("channels", "must be an object")
    channels: dict[Channel, StepTimeline] = {}
    for channel in Channel:
        raw = raw_channels.get(channel.value)
        if raw is None:
            channels[channel] = StepTimeline([(0, None)])
        else:
            channels[channel] = _parse_steps(
                raw, f"channels.{channel.value}", duration_ms, "distance_cm", _parse_distance
            )
    for key in raw_channels:
        if key not in {c.value for c in Channel}:
            _fail(f"channels.{key}", "unknown channel")

    surface = (
        _parse_steps(doc["surface"], "surface", duration_ms, "value",
                     lambda v, p: _parse_enum(SurfaceKind, v, p))
        if "surface" in doc else StepTimeline([(0, SurfaceKind.TILES)])
    )
    weather = (
        _parse_steps(doc["weather"], "weather", duration_ms, "value",
                     lambda v, p: _parse_enum(Weather, v, p))
        if "weather" in doc else StepTimeline([(0, Weather.DRY)])
    )

    raw_path = doc.get("geo_path", [{"t": 0, "lat": 0.0, "lon": 0.0}])
    if not isinstance(raw_path, list) or not raw_path:
        _fail("geo_path", "must be a non-empty list of waypoints")
    waypoints = []
    for i, entry in enumerate(raw_path):
        here = f"geo_path[{i}]"
        if not isinstance(entry, dict):
            _fail(here, "must be an object")
        t = _require_int(entry.get("t"), f"{here}.t", minimum=0)
        if t > duration_ms:
            _fail(f"{here}.t", "must not exceed duration_ms")
        lat = entry.get("lat")
        lon = entry.get("lon")
        if not isinstance(lat, (int, float)) or isinstance(lat, bool) or not -90 <= lat <= 90:
            _fail(f"{here}.lat", "must be a number in [-90, 90]")
        if not isinstance(lon, (int, float)) or isinstance(lon, bool) or not -180 <= lon <= 180:
            _fail(f"{here}.lon", "must be a number in [-180, 180]")
        waypoints.append((t, float(lat), float(lon)))
    try:
        geo = GeoPath(waypoints)
    except ScenarioError as exc:
        _fail("geo_path", str(exc))
        raise AssertionError

    def bool_timeline(key: str) -> StepTimeline:
        if key in doc:
            return _parse_steps(doc[key], key, duration_ms, "value", _parse_bool)
        return StepTimeline([(0, True)])

    gps = bool_timeline("gps_available")
    network = bool_timeline("network_available")
    server = bool_timeline("server_available")

    raw_events = doc.get("user_events", [])
    if not isinstance(raw_events, list):
        _fail("user_events", "must be a list")
    events: list[UserEvent] = []
    last_t = -1
    for i, entry in enumerate(raw_events):
        here = f"user_events[{i}]"
        if not isinstance(entry, dict):
            _fail(here, "must be an object")
        t = _require_int(entry.get("t"), f"{here}.t", minimum=0)
        if t > duration_ms:
            _fail(f"{here}.t", "must not exceed duration_ms")
        if t <= last_t:
            _fail(f"{here}.t", "user event times must be strictly increasing")
        last_t = t
        kind = entry.get("kind")
        if kind == "button":
            events.append(UserEvent(t, "button"))
        elif kind == "utterance":
            text = entry.get("text")
            if not isinstance(text, str) or not text.strip():
                _fail(f"{here}.text", "must be a non-empty string")
            events.append(UserEvent(t, "utterance", text))
        else:
            _fail(f"{here}.kind", "must be 'button' or 'utterance'")

    start_epoch_s = parse_start_utc(doc.get("start_utc", DEFAULT_START_UTC))

    return ScenarioScript(
        duration_ms=duration_ms,
        seed=seed,
        channels=channels,
        surface=surface,
        weather=weather,
        geo=geo,
        gps=gps,
        network=network,
        server=server,
        user_events=events,
        start_epoch_s=start_epoch_s,
        name=name,
    )


def load_scenario(path: "str | os.PathLike[str]") -> ScenarioScript:
    """Read and validate a scenario script from a JSON file."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    name = os.path.basename(path)
    if name.endswith(".json"):
        name = name[: -len(".json")]
    return scenario_from_dict(doc, name=name)


def utc_string(epoch_s: int) -> str:
    """Render epoch seconds as the canonical ISO-8601 'Z' form."""
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


__all__ = [
    "PULSES_PER_CM", "GATE_LOW_CM", "GATE_HIGH_CM",
    "Channel", "SurfaceKind", "Weather", "NoiseParams", "Calibration",
    "DEFAULT_CALIBRATION", "check_calibration_ordering", "noise_params_for",
    "sample_echo", "StepTimeline", "GeoPath", "UserEvent",
    "ScenarioScript", "ChannelEcho", "scenario_from_dict", "load_scenario",
    "parse_start_utc", "utc_string", "DEFAULT_START_UTC",
]
