"""End-to-end simulation harness.

run_scenario() wires the world model, firmware, serial link, handset app,
and the tracking server's store into one deterministic run over virtual
time, producing a TraceLog.  distance_error_experiment() sweeps a fixed
distance grid per surface/weather condition to measure post-filter accuracy,
and assert_expectations() checks ordered eventually/never patterns against a
trace.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .app import (
    AssistiveApp,
    CallEmergency,
    SetMuted,
    Uploader,
    make_fix,
    select_provider,
)
from .clock import VirtualClock
from .config import SystemConfig
from .errors import ScenarioError
from .firmware import FirmwareState, NoEchoError, acquire_distance, book_quiet_passes, firmware_tick
from .jsonread import bounded_rule, choice_rule, list_rule, load_json, object_rule, read_json
from .link import LinkBuffer
from .server import FixValidationError, StorageError, TrackStore
from .trace import (
    TraceLog,
    ev_button,
    ev_call,
    ev_decode,
    ev_frame,
    ev_motor,
    ev_server_ack,
    ev_set_muted,
    ev_speak,
    ev_upload,
    ev_utterance,
    row_alert,
    row_measurement,
    row_no_echo,
)
from .world import (
    Channel,
    ChannelEcho,
    ScenarioScript,
    SurfaceKind,
    Weather,
    echo_sampler,
    noise_params_for,
    sample_echo,
    utc_string,
)

# Secondary stream for fix noise so echo sampling and positioning stay
# independent; any fixed odd constant works.
_FIX_STREAM_SALT = 0x9E3779B9


def run_scenario(script: ScenarioScript, config: Optional[SystemConfig] = None,
                 seed: Optional[int] = None,
                 store_path: Optional[str] = None) -> TraceLog:
    """Simulate one scripted walk end to end and return its trace.

    The same (script, config, seed) triple always produces a byte-identical
    trace.  When store_path is given, the tracking store the walk uploads
    to persists there, fsyncing each upload, and the file survives the run;
    otherwise the store lives in memory and nothing is written.  A negative
    seed raises ValueError: random.Random would seed with its absolute value
    and replay the positive seed's walk.

    Each step runs one firmware pass, and steps the app only after a pass
    that sent frames or once the app's next event is due; after a pass with
    no echo on any channel, firmware.book_quiet_passes books the quiet
    passes that follow.  A measurement's truth is its echo source's
    (world.ChannelEcho.truth_at).
    """
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if config is None:
        config = SystemConfig.default()
    run_seed = script.seed if seed is None else seed
    echo_rng = random.Random(run_seed)
    fix_rng = random.Random(run_seed ^ _FIX_STREAM_SALT)

    clock = VirtualClock()
    trace = TraceLog()
    add = trace.add
    fw_state = FirmwareState()
    fw_config = config.firmware
    app = AssistiveApp(config.app)
    uploader = Uploader(config.app.upload_interval_ms)
    link = LinkBuffer()
    duration = script.duration_ms
    events = script.user_events
    next_event = 0

    # sample_echo is passed by this module's name, where perfbench's traced
    # run wraps it to count draws.  Listed in Channel order, the order of a
    # firmware pass's rounds.
    echoes = [ChannelEcho(script, channel, config.calibration, echo_rng, sample=sample_echo)
              for channel in Channel]

    store = TrackStore(store_path)

    def fix_at(due_ms: int):
        provider = select_provider(script.gps.at(due_ms), script.network.at(due_ms))
        if provider is None:
            return None
        lat, lon = script.geo.at(due_ms)
        timestamp = utc_string(script.start_epoch_s + due_ms // 1000)
        return make_fix(lat, lon, provider, timestamp, config.app, fix_rng)

    def deliver(fix, due_ms: int) -> Optional[int]:
        if not script.server.at(due_ms):
            return None
        try:
            record = store.insert(fix)
        except (FixValidationError, StorageError):
            return None
        add(ev_server_ack(due_ms, record.id, record.device_id, record.timestamp))
        return record.id

    def next_app_ms() -> float:
        """When the app next has something to do without a token: the next
        user event, or the next upload that fires (none fires after
        duration_ms)."""
        due = events[next_event].t_ms if next_event < len(events) else math.inf
        if uploader.next_due_ms <= duration:
            due = min(due, uploader.next_due_ms)
        return due

    def app_step(inputs: list) -> None:
        """Feed the app `inputs`, the (t_ms, token) pairs the link just
        delivered, and the user events now due, in time order; then run the
        uploader up to now, and work out when the app next has work."""
        nonlocal next_event, next_app
        now = clock.now()
        horizon = min(now, duration)
        while next_event < len(events) and events[next_event].t_ms <= horizon:
            inputs.append((events[next_event].t_ms, events[next_event]))
            next_event += 1
        if len(inputs) > 1:
            # Tokens go in first, so the stable sort keeps them ahead of
            # user events at the same time.
            inputs.sort(key=itemgetter(0))
        for t_ms, item in inputs:
            if isinstance(item, str):
                message, phrase = app.handle_token(item, t_ms)
                add(ev_decode(t_ms, message))
                if phrase is not None:
                    add(ev_speak(t_ms, message, config.app.language.value, phrase))
            elif item.kind == "button":
                add(ev_button(t_ms))
                app.handle_button(t_ms)
            else:  # utterance
                add(ev_utterance(t_ms, item.text))
                action = app.handle_utterance(item.text, t_ms)
                if isinstance(action, CallEmergency):
                    add(ev_call(t_ms, action.number))
                elif isinstance(action, SetMuted):
                    add(ev_set_muted(t_ms, action.muted))
        for attempt in uploader.tick(now, duration, fix_at, deliver):
            add(ev_upload(attempt))
        next_app = next_app_ms()

    # One step: firmware pass -> its trace events and frames -> the link ->
    # the app, then the quiet passes after it, if it had nothing in range.
    # The app steps only when it has work: after a pass that sent frames, or
    # once its next event is due (also at t=0, before the first pass).  Any
    # other step would find no token, no user event and no upload.
    try:
        next_app = next_app_ms()
        if next_app <= min(clock.now(), duration):
            app_step([])
        while clock.now() < duration:
            sent = []
            no_echo = 0
            for echo, (channel, t_ms, distance_cm, alerting, motor_changed, frame) in zip(
                    echoes, firmware_tick(fw_state, echoes, clock, fw_config)):
                if distance_cm is None:
                    add(row_no_echo(t_ms, channel))
                    no_echo += 1
                else:
                    add(row_measurement(t_ms, channel, distance_cm, *echo.truth_at(t_ms)))
                if alerting:
                    add(row_alert(t_ms, channel, distance_cm))
                if motor_changed:
                    add(ev_motor(t_ms, channel, alerting))
                if frame is not None:
                    add(ev_frame(t_ms, frame))
                    link.send(frame)
                    sent.append(t_ms)
            # The link is lossless and every frame is whole, so it delivers
            # exactly this pass's frames; after a pass that sent none it is empty.
            if sent or next_app <= min(clock.now(), duration):
                app_step(list(zip(sent, link.deframe(), strict=True)) if sent else [])
            if no_echo == len(echoes):
                # Polled one by one, the quiet passes that end before the app's
                # next event would add only these.
                for t_ms, channel in book_quiet_passes(echoes, clock, duration, next_app,
                                                       fw_config):
                    add(row_no_echo(t_ms, channel))
    finally:
        store.close()

    trace.sort_by_time()
    return trace


# ---------------------------------------------------------------------------
# Distance-error experiment: post-filter accuracy per surface/weather.
# ---------------------------------------------------------------------------

GRID_START_CM = 20
GRID_STOP_CM = 600
GRID_STEP_CM = 20
EXPERIMENT_SEED = 42


def distance_error_experiment(config: Optional[SystemConfig] = None,
                              seed: int = EXPERIMENT_SEED) -> TraceLog:
    """Measure every grid distance once per (surface, weather) condition.

    Each point runs the full firmware measurement round (nine gated samples,
    median) against the noise model for that condition, all on one seeded
    stream, and is recorded as a measurement event.  A negative seed raises
    ValueError, as in run_scenario.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if config is None:
        config = SystemConfig.default()
    rng = random.Random(seed)
    clock = VirtualClock()
    trace = TraceLog()
    for surface in (SurfaceKind.TILES, SurfaceKind.CONCRETE):
        for weather in (Weather.DRY, Weather.WET):
            params = noise_params_for(surface, weather, config.calibration)
            for true_cm in range(GRID_START_CM, GRID_STOP_CM + 1, GRID_STEP_CM):
                draw = echo_sampler(true_cm, params, rng)
                try:  # a fixed target: one segment that never ends
                    measured = acquire_distance(Channel.GROUND, lambda t_ms: (draw, math.inf),
                                                clock, config.firmware)
                except NoEchoError:
                    trace.add(row_no_echo(clock.now(), Channel.GROUND))
                    continue
                trace.add(row_measurement(
                    clock.now(), Channel.GROUND, measured, true_cm, surface, weather
                ))
    return trace


@dataclass(frozen=True)
class BucketStats:
    surface: SurfaceKind
    weather: Weather
    count: int
    mape_pct: float
    max_error_pct: float


@dataclass(frozen=True)
class ErrorReport:
    """Accuracy per (surface, weather) bucket plus sample-weighted overall."""

    buckets: dict[tuple[SurfaceKind, Weather], BucketStats]
    overall_mape_pct: float
    total_count: int

    def bucket(self, surface: SurfaceKind, weather: Weather) -> Optional[BucketStats]:
        return self.buckets.get((surface, weather))

    def mape_for_weather(self, weather: Weather) -> Optional[float]:
        """Sample-weighted MAPE across every surface under one weather."""
        picked = [b for (_, w), b in self.buckets.items() if w is weather]
        total = sum(b.count for b in picked)
        if total == 0:
            return None
        return sum(b.mape_pct * b.count for b in picked) / total

    def to_dict(self) -> dict:
        return {
            "overall_mape_pct": self.overall_mape_pct,
            "total_count": self.total_count,
            "buckets": [
                {
                    "surface": stats.surface.value,
                    "weather": stats.weather.value,
                    "count": stats.count,
                    "mape_pct": stats.mape_pct,
                    "max_error_pct": stats.max_error_pct,
                }
                for stats in self.buckets.values()
            ],
        }

    def table(self) -> str:
        lines = [
            f"{'surface':<10} {'weather':<8} {'count':>5} {'MAPE %':>8} {'max err %':>10}",
            "-" * 45,
        ]
        for stats in self.buckets.values():
            lines.append(
                f"{stats.surface.value:<10} {stats.weather.value:<8} "
                f"{stats.count:>5} {stats.mape_pct:>8.2f} {stats.max_error_pct:>10.2f}"
            )
        lines.append("-" * 45)
        lines.append(f"overall MAPE over {self.total_count} measurements: "
                     f"{self.overall_mape_pct:.2f}%")
        return "\n".join(lines)


# What error_report reads of a measurement event that has a true distance.
_MEASURED = object_rule({"true_cm": float, "measured_cm": float, "surface": SurfaceKind,
                         "weather": Weather}, required=("measured_cm", "surface", "weather"),
                        other=lambda value: value)


def error_report(traces: Sequence[TraceLog]) -> ErrorReport:
    """Aggregate measurement events into per-condition accuracy statistics.

    Errors are relative (percent of the true distance), so the report is
    invariant under uniform rescaling of true and measured values.  A bad
    measurement with a true distance raises ScenarioError naming it and the field.
    """
    errors: dict[tuple[SurfaceKind, Weather], list[float]] = {}
    for number, trace in enumerate(traces, 1):
        for index, event in enumerate(trace.events):
            if event.get("kind") != "measurement" or event.get("true_cm") is None:
                continue
            try:
                fields = read_json(event, _MEASURED, ScenarioError, "event")
            except ScenarioError as exc:
                raise ScenarioError(f"trace {number}, event {index} (t={event.get('t')}): "
                                    f"{exc}") from None
            true_cm = fields["true_cm"]
            if true_cm > 0:
                errors.setdefault((fields["surface"], fields["weather"]), []).append(
                    abs(fields["measured_cm"] - true_cm) / true_cm * 100.0)

    buckets: dict[tuple[SurfaceKind, Weather], BucketStats] = {}
    weighted_sum = 0.0
    total = 0
    for key in sorted(errors, key=lambda k: (k[0].value, k[1].value)):
        errs = errors[key]
        stats = BucketStats(
            surface=key[0], weather=key[1], count=len(errs),
            mape_pct=sum(errs) / len(errs), max_error_pct=max(errs),
        )
        buckets[key] = stats
        weighted_sum += stats.mape_pct * stats.count
        total += stats.count
    overall = weighted_sum / total if total else 0.0
    return ErrorReport(buckets=buckets, overall_mape_pct=overall, total_count=total)


# ---------------------------------------------------------------------------
# Expectation matching: ordered eventually/never patterns over a trace.
# ---------------------------------------------------------------------------


_PATTERN = object_rule({
    "op": choice_rule({"eventually": "eventually", "never": "never"}),
    "kind": str,
    "where": object_rule({}, other=lambda value: value),  # event field -> any JSON value
}, required=("op", "kind"))


def _check_patterns(patterns: Sequence[object]) -> None:
    for index, pattern in enumerate(patterns):
        try:
            read_json(pattern, _PATTERN, ScenarioError, "pattern")
        except ScenarioError as exc:
            raise ScenarioError(f"pattern {index} is malformed: {exc}") from None


# The object form of an expectations file; its patterns are read one by one
# by _check_patterns, as a bare list's are.
_EXPECTATIONS = object_rule({
    "schema_version": bounded_rule(int, 1, 1, "must be 1"),
    "patterns": list_rule(lambda pattern: pattern),
}, required=("patterns",))


def _matches(event: dict, kind: str, where: dict) -> bool:
    if event.get("kind") != kind:
        return False
    return all(event.get(field) == value for field, value in where.items())


def assert_expectations(trace: TraceLog, patterns: Sequence[dict]) -> tuple[bool, str]:
    """Check ordered patterns against a trace.

    Patterns are objects {"op": "eventually"|"never", "kind": ..., "where": {...}}
    processed left to right with a cursor.  "eventually" scans forward for a
    matching event and advances the cursor past it; "never" requires that no
    matching event exists at or after the cursor (it does not advance).  The
    first failure is reported with its pattern index and timestamps.
    """
    _check_patterns(patterns)
    events = trace.events
    cursor = 0
    for index, pattern in enumerate(patterns):
        kind = pattern["kind"]
        where = pattern.get("where", {})
        if pattern["op"] == "eventually":
            for i in range(cursor, len(events)):
                if _matches(events[i], kind, where):
                    cursor = i + 1
                    break
            else:
                at = events[cursor - 1]["t"] if cursor else 0
                return False, (
                    f"pattern {index}: eventually {kind} {where or ''} "
                    f"never matched after t={at}ms"
                )
        else:
            for i in range(cursor, len(events)):
                if _matches(events[i], kind, where):
                    return False, (
                        f"pattern {index}: never {kind} {where or ''} "
                        f"violated at t={events[i]['t']}ms"
                    )
    return True, f"all {len(patterns)} patterns satisfied"


def _read_patterns(doc: object) -> list[dict]:
    """The patterns of an expectations document: a bare list of them, or an
    object {"schema_version": 1, "patterns": [...]}."""
    if type(doc) is dict:
        doc = read_json(doc, _EXPECTATIONS, ScenarioError, "expectations")["patterns"]
    elif type(doc) is not list:
        raise ScenarioError("expected a list of patterns or an object with one")
    _check_patterns(doc)
    return doc


def load_expectations(path: str) -> list[dict]:
    """The patterns of an expectations file (see _read_patterns); a refusal
    starts with the path."""
    return load_json(path, ScenarioError, _read_patterns)


__all__ = [
    "run_scenario", "distance_error_experiment", "error_report",
    "assert_expectations", "load_expectations", "EXPERIMENT_SEED",
]
