"""Traced run, done from outside the program.

`installed(tracer)` replaces public functions and methods of every layer
with timing wrappers for the duration of a `with` block and puts the
originals back when it ends, also when the block raises.  Each wrapper
records its span's duration and, by subtracting the time covered by its
child spans, its self time; time in code that is not wrapped counts to the
nearest wrapped caller.  Calls on the per-poll path are only aggregated
(per function and per caller-callee edge); the rarer calls listed in
KEPT_SPANS are also kept one by one with their parent span, and all of it
is written out when the benchmark ends.  Counters are gathered by small
hooks that look at a call's arguments and result.

Names carry their layer as a prefix: `world.`, `firmware.`, `link.`,
`app.`, `server.`, `tracker.`, `trace.` or `harness.`.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

from echoguide import app, firmware, harness, link, server, trace, tracker, world

KEPT_SPANS = frozenset({
    "harness.run_scenario", "trace.TraceLog.sort_by_time", "trace.TraceLog.to_jsonl",
    "server.TrackStore.insert", "server.TrackStore.records", "server.validate_fix",
    "server.TrackService.insert_fix", "server.TrackService.latest_fix",
    "server.TrackService.history", "server.TrackRequestHandler.do_GET",
    "server.TrackRequestHandler.do_POST", "tracker.fetch_latest", "tracker.fetch_history",
    "tracker.show_map", "tracker.track_feature",
})


class _ThreadState:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list[list] = []  # [name, child seconds, nearest kept span id]
        self.funcs: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start s, end s)
        self.counters: dict[str, float] = {}


class Tracer:
    """Spans and counters, kept per thread and merged when read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.origin = perf_counter()
        self.inner_s = self.outer_s = 0.0

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(st)
            return st

    def timed(self, name: str, fn, hook=None):
        keep = name in KEPT_SPANS
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.state()
            stack = st.stack
            parent = stack[-1] if stack else None
            span_id = next(ids) if keep else (parent[2] if parent else 0)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats = st.funcs.get(name)
                if stats is None:
                    stats = st.funcs[name] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                edge = (parent[0] if parent else "", name)
                st.edges[edge] = st.edges.get(edge, 0) + 1
                if keep:
                    st.spans.append((span_id, parent[2] if parent else 0, name,
                                     start - self.origin, end - self.origin))
                if hook is not None:
                    hook(st.counters, args, result, exc)
        return wrapper

    def calibrate(self, calls: int = 100_000) -> None:
        """Measure what one wrapper costs, so that self times can leave it out.

        inner_s is the part inside the wrapped call's own span, outer_s the
        part its caller pays outside that span.
        """
        scratch = Tracer()

        def noop():
            return None

        wrapped = scratch.timed("calibrate", noop, _on_lookup)  # a typical counter hook

        def per_call(fn) -> float:
            started = perf_counter()
            for _ in range(calls):
                fn()
            return (perf_counter() - started) / calls

        bare = per_call(noop)
        outside = per_call(wrapped)
        count, inside, _ = scratch.funcs()["calibrate"]
        self.inner_s = max(0.0, inside / count - bare)
        self.outer_s = max(0.0, outside - inside / count)

    # -- reading ----------------------------------------------------------

    def funcs(self) -> dict[str, list[float]]:
        merged: dict[str, list[float]] = {}
        for st in self._states:
            for name, (calls, total, own) in st.funcs.items():
                m = merged.setdefault(name, [0, 0.0, 0.0])
                m[0] += calls
                m[1] += total
                m[2] += own
        return merged

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for st in self._states:
            for name, value in st.counters.items():
                if name.startswith("max."):
                    merged[name] = max(merged.get(name, 0), value)
                else:
                    merged[name] = merged.get(name, 0) + value
        return merged

    def edges(self) -> dict[tuple[str, str], int]:
        merged: dict[tuple[str, str], int] = {}
        for st in self._states:
            for edge, calls in st.edges.items():
                merged[edge] = merged.get(edge, 0) + calls
        return merged

    def self_s(self) -> dict[str, float]:
        """Self time per function, less the calibrated cost of the wrappers
        around it and around its children."""
        children: dict[str, int] = {}
        for (parent, _), calls in self.edges().items():
            children[parent] = children.get(parent, 0) + calls
        return {
            name: max(0.0, own - calls * self.inner_s - children.get(name, 0) * self.outer_s)
            for name, (calls, _, own) in self.funcs().items()
        }

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1000.0 for st in self._states
                for (_, _, n, start, end) in st.spans if n == name]

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form (times in ms)."""
        corrected = self.self_s()
        return {
            "wrapper_cost_ms": {"inner": self.inner_s * 1000.0, "outer": self.outer_s * 1000.0},
            "functions": {name: {"calls": c, "total_ms": t * 1000.0, "raw_self_ms": s * 1000.0,
                                 "self_ms": corrected[name] * 1000.0}
                          for name, (c, t, s) in sorted(self.funcs().items())},
            "edges": [[parent, child, calls] for (parent, child), calls in sorted(self.edges().items())],
            "counters": self.counters(),
            "spans": [[span_id, parent, name, start * 1000.0, end * 1000.0, st.thread]
                      for st in self._states for (span_id, parent, name, start, end) in st.spans],
        }


# -- counter hooks ------------------------------------------------------------


def _bump(counters: dict, name: str, by: float = 1) -> None:
    counters[name] = counters.get(name, 0) + by


def _on_sample(c, args, result, exc):
    _bump(c, "polls")
    if args[0] is not None:
        _bump(c, "echo_draws")


def _on_lookup(c, args, result, exc):
    _bump(c, "lookups")


def _on_round(c, args, result, exc):
    _bump(c, "rounds")
    if isinstance(exc, firmware.NoEchoError):
        _bump(c, "no_echo_rounds")


def _on_gate(c, args, result, exc):
    _bump(c, "gate_checks")
    if not result:
        _bump(c, "gate_rejects")


def _on_send(c, args, result, exc):
    _bump(c, "frames")
    _bump(c, "link_bytes", len(args[1]))


def _on_deframe(c, args, result, exc):
    _bump(c, "deframe_calls")
    if result:
        _bump(c, "tokens", len(result))


def _on_announce(c, args, result, exc):
    if result is not None:
        _bump(c, "speaks")


def _on_voice(c, args, result, exc):
    _bump(c, "voice_events")


def _on_upload_tick(c, args, result, exc):
    _bump(c, "iterations")
    if result:
        _bump(c, "upload_ticks")
        for attempt in result:
            _bump(c, "uploads_delivered" if attempt.delivered else "uploads_queued")
    depth = len(args[0].pending)
    if depth > c.get("max.queue_depth", 0):
        c["max.queue_depth"] = depth


def _on_event(c, args, result, exc):
    _bump(c, "events")


def _on_jsonl(c, args, result, exc):
    if result is not None:
        _bump(c, "trace_bytes", len(result.encode("utf-8")))


def _on_insert(c, args, result, exc):
    _bump(c, "inserts")


def _on_records(c, args, result, exc):
    if result is not None:
        _bump(c, "records_copied", len(result))


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped call.

    The harness imports sample_echo, noise_params_for and firmware_tick by
    name, so those are replaced on the harness module; firmware_tick finds
    acquire_distance and gate_valid on the firmware module.
    """
    return [
        (harness, "run_scenario", "harness.run_scenario", None),
        (harness, "sample_echo", "world.sample_echo", _on_sample),
        (harness, "noise_params_for", "world.noise_params_for", None),
        (world.StepTimeline, "at", "world.StepTimeline.at", _on_lookup),
        (world.GeoPath, "at", "world.GeoPath.at", _on_lookup),
        (harness, "firmware_tick", "firmware.firmware_tick", None),
        (firmware, "acquire_distance", "firmware.acquire_distance", _on_round),
        (firmware, "gate_valid", "firmware.gate_valid", _on_gate),
        (link.LinkBuffer, "send", "link.LinkBuffer.send", _on_send),
        (link.LinkBuffer, "deframe", "link.LinkBuffer.deframe", _on_deframe),
        (app.AssistiveApp, "announce", "app.AssistiveApp.announce", _on_announce),
        (app.AssistiveApp, "handle_token", "app.AssistiveApp.handle_token", None),
        (app.AssistiveApp, "handle_button", "app.AssistiveApp.handle_button", _on_voice),
        (app.AssistiveApp, "handle_utterance", "app.AssistiveApp.handle_utterance", _on_voice),
        (app.AssistiveApp, "handle_tick", "app.AssistiveApp.handle_tick", None),
        (app.Uploader, "tick", "app.Uploader.tick", _on_upload_tick),
        (server, "validate_fix", "server.validate_fix", None),
        (server.TrackStore, "insert", "server.TrackStore.insert", _on_insert),
        (server.TrackStore, "records", "server.TrackStore.records", _on_records),
        (server.TrackService, "insert_fix", "server.TrackService.insert_fix", None),
        (server.TrackService, "latest_fix", "server.TrackService.latest_fix", None),
        (server.TrackService, "history", "server.TrackService.history", None),
        (server.TrackRequestHandler, "do_GET", "server.TrackRequestHandler.do_GET", None),
        (server.TrackRequestHandler, "do_POST", "server.TrackRequestHandler.do_POST", None),
        (tracker, "fetch_latest", "tracker.fetch_latest", None),
        (tracker, "fetch_history", "tracker.fetch_history", None),
        (tracker, "show_map", "tracker.show_map", None),
        (tracker, "track_feature", "tracker.track_feature", None),
        (trace.TraceLog, "add", "trace.TraceLog.add", _on_event),
        (trace.TraceLog, "sort_by_time", "trace.TraceLog.sort_by_time", None),
        (trace.TraceLog, "to_jsonl", "trace.TraceLog.to_jsonl", _on_jsonl),
    ]


def wrapped_attributes() -> list[tuple[object, str]]:
    return [(owner, attr) for owner, attr, _, _ in _targets()]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.timed(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run: (value, unit).

    Walk metrics are per traced walk; server and tracker metrics are per
    call, taken over the whole traced run.
    """
    funcs = tracer.funcs()
    own = tracer.self_s()
    c = tracer.counters()
    walks = max(1, funcs.get("harness.run_scenario", [0])[0])

    def self_ms(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names) * 1000.0 / walks

    def per_walk(name: str) -> float:
        return c.get(name, 0) / walks

    def mean_ms(*names: str) -> float:
        calls = sum(funcs.get(n, [0])[0] for n in names)
        total = sum(funcs.get(n, [0, 0.0])[1] for n in names)
        return total * 1000.0 / calls if calls else 0.0

    polls = c.get("polls", 0)
    queries = sum(funcs.get(n, [0])[0] for n in
                  ("server.TrackService.latest_fix", "server.TrackService.history"))
    handler = (tracer.durations_ms("server.TrackRequestHandler.do_GET")
               + tracer.durations_ms("server.TrackRequestHandler.do_POST"))
    fetches = (tracer.durations_ms("tracker.fetch_latest")
               + tracer.durations_ms("tracker.fetch_history"))
    return {
        "world.polls": (per_walk("polls"), "count/walk"),
        "world.echo_draws": (per_walk("echo_draws"), "count/walk"),
        "world.empty_poll_frac": (1.0 - c.get("echo_draws", 0) / polls if polls else 0.0, "frac"),
        "world.lookups": (per_walk("lookups"), "count/walk"),
        "world.lookups_per_poll": (c.get("lookups", 0) / polls if polls else 0.0, "count/poll"),
        "world.lookup_ms": (self_ms("world.StepTimeline.at", "world.GeoPath.at"), "ms/walk"),
        "world.sample_ms": (self_ms("world.sample_echo", "world.noise_params_for"), "ms/walk"),
        "harness.iterations": (per_walk("iterations"), "count/walk"),
        "harness.self_ms": (self_ms("harness.run_scenario"), "ms/walk"),
        "firmware.rounds": (per_walk("rounds"), "count/walk"),
        "firmware.no_echo_rounds": (per_walk("no_echo_rounds"), "count/walk"),
        "firmware.gate_rejects": (per_walk("gate_rejects"), "count/walk"),
        "firmware.valid_sample_frac": (
            (c.get("gate_checks", 0) - c.get("gate_rejects", 0)) / polls if polls else 0.0, "frac"),
        "firmware.self_ms": (self_ms("firmware.firmware_tick", "firmware.acquire_distance",
                                      "firmware.gate_valid"), "ms/walk"),
        "trace.events": (per_walk("events"), "count/walk"),
        "trace.bytes": (per_walk("trace_bytes"), "B/walk"),
        "trace.add_ms": (self_ms("trace.TraceLog.add"), "ms/walk"),
        "trace.sort_ms": (self_ms("trace.TraceLog.sort_by_time"), "ms/walk"),
        "trace.to_jsonl_ms": (self_ms("trace.TraceLog.to_jsonl"), "ms/walk"),
        "link.frames": (per_walk("frames"), "count/walk"),
        "link.bytes": (per_walk("link_bytes"), "B/walk"),
        "link.deframe_calls": (per_walk("deframe_calls"), "count/walk"),
        "link.self_ms": (self_ms("link.LinkBuffer.send", "link.LinkBuffer.deframe"), "ms/walk"),
        "app.tokens": (per_walk("tokens"), "count/walk"),
        "app.speaks": (per_walk("speaks"), "count/walk"),
        "app.voice_events": (per_walk("voice_events"), "count/walk"),
        "app.self_ms": (self_ms("app.AssistiveApp.announce", "app.AssistiveApp.handle_token",
                                "app.AssistiveApp.handle_button", "app.AssistiveApp.handle_utterance",
                                "app.AssistiveApp.handle_tick"), "ms/walk"),
        "app.upload_ticks": (per_walk("upload_ticks"), "count/walk"),
        "app.uploads_delivered": (per_walk("uploads_delivered"), "count/walk"),
        "app.uploads_queued": (per_walk("uploads_queued"), "count/walk"),
        "app.max_queue_depth": (c.get("max.queue_depth", 0), "count"),
        "app.uploader_ms": (self_ms("app.Uploader.tick"), "ms/walk"),
        "server.inserts": (c.get("inserts", 0), "count"),
        "server.insert_ms_p50": (_p50(tracer.durations_ms("server.TrackStore.insert")), "ms"),
        "server.validate_ms": (mean_ms("server.validate_fix"), "ms/call"),
        "server.latest_ms_p50": (_p50(tracer.durations_ms("server.TrackService.latest_fix")), "ms"),
        "server.history_ms_p50": (_p50(tracer.durations_ms("server.TrackService.history")), "ms"),
        "server.records_copied_per_query": (
            c.get("records_copied", 0) / queries if queries else 0.0, "count/query"),
        "server.handler_ms_p50": (_p50(handler), "ms"),
        "tracker.fetch_ms_p50": (_p50(fetches), "ms"),
        "tracker.render_ms": (mean_ms("tracker.show_map", "tracker.track_feature"), "ms/call"),
    }
