"""Differential tests: the skip-ahead sensing loop against the references
that poll, on generated walks, and the single walks that keep those
references apart.

Each generated walk is run by run_scenario, which books quiet passes and
rounds in one step and draws a segment's polls in one call, and by one
reference:

- the naive per-poll loop (reference_loop.py): the same outcome, that is
  the trace bytes, or the error, and the virtual time it ended at;
- a run that polls every round and pass (PassByPassEcho): the same
  timeline lookups, the same app steps that have work to do, and the same
  outcome;
- a run with the sample function behind a wrapper, which makes ChannelEcho
  call it once per poll, as perfbench's traced run does: the same outcome.

The generators, which test_run_properties.py draws from too, favour the
places where skipping can go wrong: step times off the poll grid, targets
that appear inside a round, steps at duration_ms, rounds that run past
duration_ms, surface and weather changes inside an empty stretch,
channels left out, very short durations, other poll periods and attempt
limits, and calibration tables with entries missing.  Half the walks get
a button or any utterance at each of up to five step times, with "start
speaking" and speech that is no command among the texts.  The repeat
intervals of the firmware and of the announcements, the listening window
and the upload interval are drawn too.  The examples add stretches of
whole quiet passes, which the run loop books in one step, ended by each
thing that must end them; quiet rounds of one channel, which the firmware
books while other channels measure; and measurement rounds that end on or
past the end of the segment they drew from, whose truth the run loop
looks up.

The single walks check that each reference takes the path it stands for,
and the bundled walks run with the sample behind the wrapper too.
"""

from __future__ import annotations

import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_loop
from conftest import CONFIG_DIR, REPO_ROOT, SCENARIO_DIR
from echoguide import app, firmware, harness, world
from echoguide.config import SystemConfig, config_from_dict, load_config
from echoguide.firmware import acquire_distance
from echoguide.world import SurfaceKind, Weather, load_scenario, scenario_from_dict

from reference_loop import both_outcomes

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import tracing  # noqa: E402

OFF_GRID_MS = (1, 9, 11, 499, 501)
SHORT_DURATIONS_MS = (1, 499, 500, 501)
DISTANCES_CM = (None, 10, 15.4, 16, 40, 59.9, 60, 99.5, 100, 300, 644, 645, 700, 1000)
TEXTS = ("i need help", "stop speaking", "start speaking", "what time is it")


@st.composite
def step_times(draw, duration_ms: int) -> list[int]:
    """Sorted distinct step times in (0, duration_ms]."""
    special = sorted({t for t in OFF_GRID_MS + (duration_ms, duration_ms - 1, duration_ms - 9,
                                             duration_ms - 10)
                      if 0 < t <= duration_ms})
    times = draw(st.lists(st.sampled_from(special) | st.integers(1, duration_ms),
                          max_size=5, unique=True))
    return sorted(times)


@st.composite
def timeline(draw, duration_ms: int, key: str, values) -> list[dict]:
    times = [0] + draw(step_times(duration_ms))
    return [{"t": t, key: draw(values)} for t in times]


distances = (st.none() | st.sampled_from(DISTANCES_CM)
             | st.floats(min_value=0.5, max_value=1000.0, allow_nan=False))


@st.composite
def scenario_docs(draw) -> dict:
    duration = draw(st.sampled_from(SHORT_DURATIONS_MS) | st.integers(1, 6000))
    doc: dict = {
        "schema_version": 1,
        "duration_ms": duration,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "channels": {},
    }
    for channel in ("ground", "left", "right"):
        if draw(st.booleans()):  # otherwise the channel is left out: empty throughout
            doc["channels"][channel] = draw(timeline(duration, "distance_cm", distances))
    if draw(st.booleans()):
        doc["surface"] = draw(timeline(duration, "value", st.sampled_from(["tiles", "concrete"])))
    if draw(st.booleans()):
        doc["weather"] = draw(timeline(duration, "value", st.sampled_from(["dry", "wet"])))
    if draw(st.booleans()):
        doc["server_available"] = draw(timeline(duration, "value", st.booleans()))
    if draw(st.booleans()):  # a button or any text at each step time
        doc["user_events"] = [
            {"t": t, "kind": "button"} if draw(st.booleans())
            else {"t": t, "kind": "utterance", "text": draw(st.sampled_from(TEXTS))}
            for t in draw(step_times(duration))]
    else:  # at most three, a button and a command in turn
        doc["user_events"] = [
            {"t": t, "kind": "button"} if i % 2 == 0
            else {"t": t, "kind": "utterance", "text": draw(st.sampled_from(TEXTS[:2]))}
            for i, t in enumerate(draw(step_times(duration))[:3])]
    return doc


noise = st.fixed_dictionaries({
    "rel_sigma": st.sampled_from([0.0, 0.065, 0.3]),
    "rel_bias": st.sampled_from([0.0, 0.06, -0.2]),
    "outlier_prob": st.sampled_from([0.0, 0.05, 0.5, 1.0]),
})


@st.composite
def config_docs(draw) -> dict:
    # Each interval's choices hold its default.
    samples = draw(st.sampled_from([1, 3, 9]))
    firmware = {
        "samples_per_measurement": samples,
        "sample_period_ms": draw(st.sampled_from([1, 7, 10, 13, 30])),
        "max_sample_attempts": draw(st.sampled_from([samples, samples + 1, 20, 50])),
        "repeat_interval_ms": draw(st.sampled_from([100, 700, 2000])),
    }
    calibration = {
        surface: {weather: draw(noise) for weather in ("dry", "wet")}
        for surface in ("tiles", "concrete")
    } if draw(st.booleans()) else {}
    return {
        "schema_version": 1,
        "firmware": firmware,
        "app": {"upload_interval_ms": draw(st.sampled_from([300_000, 1000, 777, 250])),
                "announce_repeat_ms": draw(st.sampled_from([1, 700, 2000, 5000])),
                "listen_window_ms": draw(st.sampled_from([1, 150, 10_000]))},
        "calibration": calibration,
    }


def build_config(doc: dict, missing) -> SystemConfig:
    """The parsed config, less one calibration entry when `missing` names one."""
    config = config_from_dict(doc)
    if missing is not None:
        del config.calibration[(SurfaceKind(missing[0]), Weather(missing[1]))]
    return config


missing_entry = st.none() | st.tuples(st.sampled_from(["tiles", "concrete"]),
                                      st.sampled_from(["dry", "wet"]))
DEFAULT_CONFIG = {"schema_version": 1}
# The generated walks: a scenario, a config, and a calibration entry to drop.
WALKS = {"doc": scenario_docs(), "config_doc": config_docs(), "missing": missing_entry}


# Stretches of quiet passes.  With the default config a pass is three rounds
# of 50 polls 10 ms apart: 1500 ms.
#
# Three quiet passes after the first, then a ground target that appears in
# the middle of the pass from 6000 ms.
QUIET_THEN_TARGET = {"schema_version": 1, "duration_ms": 9000, "seed": 34,
                     "channels": {"ground": [{"t": 0, "distance_cm": None},
                                             {"t": 6200, "distance_cm": 45}]}}
# Passes of 3 rounds of 3 polls 7 ms apart (63 ms), with a button press at
# the end of the pass from 945 ms, an utterance and upload due instants every
# 777 ms inside the stretch.
SHORT_PASSES = {"schema_version": 1, "firmware": {"samples_per_measurement": 3,
                                                  "sample_period_ms": 7,
                                                  "max_sample_attempts": 3},
                "app": {"upload_interval_ms": 777}}
QUIET_WITH_APP_WORK = {"schema_version": 1, "duration_ms": 3000, "seed": 55,
                       "user_events": [{"t": 1008, "kind": "button"},
                                       {"t": 1100, "kind": "utterance", "text": "i need help"}]}
# A weather step at 7777 ms, inside the stretch, into a condition the table
# lacks: the ground round of the pass from 7500 ms fails at its poll at 7780.
QUIET_INTO_MISSING_ENTRY = {"schema_version": 1, "duration_ms": 9000, "seed": 89,
                            "weather": [{"t": 0, "value": "dry"}, {"t": 7777, "value": "wet"}]}
# Quiet up to duration_ms, where the left channel steps: the last booked pass
# starts at 9000 ms and ends past the end of the walk.
QUIET_TO_THE_END = {"schema_version": 1, "duration_ms": 10000, "seed": 144,
                    "channels": {"left": [{"t": 0, "distance_cm": None},
                                          {"t": 10000, "distance_cm": 50}]}}

# Quiet rounds of one channel.  A ground round with a target takes 90 ms.
#
# The left channel is empty throughout and the right one until 3260 ms, while
# the ground one has a target: the firmware books the side rounds pass after
# pass.  The right round from 2770 ms has its last poll at 3260 ms, where the
# target appears, so it is polled and draws once.
ONE_QUIET_CHANNEL = {"schema_version": 1, "duration_ms": 6000, "seed": 233,
                     "channels": {"ground": [{"t": 0, "distance_cm": 80}],
                                  "right": [{"t": 0, "distance_cm": None},
                                            {"t": 3260, "distance_cm": 200}]}}
# Only the left channel is quiet.  The weather turns to a condition the table
# lacks at 1940 ms, the last poll of the left round from 1450 ms: that round
# is polled and fails there (the one from 770 ms is booked).
ONE_QUIET_INTO_MISSING_ENTRY = {"schema_version": 1, "duration_ms": 4000, "seed": 377,
                                "channels": {"ground": [{"t": 0, "distance_cm": 50}],
                                             "right": [{"t": 0, "distance_cm": 200}]},
                                "weather": [{"t": 0, "value": "dry"},
                                            {"t": 1940, "value": "wet"}]}
# Every channel has a target.  The first ground round ends at 90 ms, exactly
# where the ground distance steps, and the first left round at 180 ms, past
# the surface step at 175 ms: both measurements look their truth up at the
# round's end.  Every later round ends inside the segment it drew from.
ROUNDS_END_ON_AND_PAST_A_STEP = {
    "schema_version": 1, "duration_ms": 1000, "seed": 610,
    "channels": {"ground": [{"t": 0, "distance_cm": 50}, {"t": 90, "distance_cm": 300}],
                 "left": [{"t": 0, "distance_cm": 100}],
                 "right": [{"t": 0, "distance_cm": 200}]},
    "surface": [{"t": 0, "value": "tiles"}, {"t": 175, "value": "concrete"}]}


class PassByPassEcho(world.ChannelEcho):
    """world.ChannelEcho whose quiet_until stays 0, so the firmware and the
    run loop poll every round."""

    quiet_until = property(lambda self: 0, lambda self, until: None)


def run_record(script, config, echo=world.ChannelEcho) -> tuple[list, list, tuple]:
    """What a run did, in order: every timeline lookup as (timeline, t_ms);
    every app step that handled a token or user event or made an upload
    attempt, as (clock, items handled, attempts); and the run's outcome."""
    looked_up, app_steps = [], []
    handled = 0
    step_at = world.StepTimeline.step_at
    tick = app.Uploader.tick

    def spy_lookup(timeline, t_ms):
        looked_up.append((id(timeline), t_ms))
        return step_at(timeline, t_ms)

    def spy_handler(name):
        handler = getattr(app.AssistiveApp, name)

        def spy(*args):
            nonlocal handled
            handled += 1
            return handler(*args)
        return mock.patch.object(app.AssistiveApp, name, spy)

    def spy_tick(uploader, now_ms, *args):  # the last call of every app step
        nonlocal handled
        attempts = tick(uploader, now_ms, *args)
        if handled or attempts:
            app_steps.append((now_ms, handled, len(attempts)))
        handled = 0
        return attempts

    with mock.patch.object(world.StepTimeline, "step_at", spy_lookup), \
            mock.patch.object(app.Uploader, "tick", spy_tick), \
            spy_handler("handle_token"), spy_handler("handle_button"), \
            spy_handler("handle_utterance"), \
            mock.patch.object(harness, "ChannelEcho", echo):
        result = reference_loop.outcome(harness.run_scenario, script, config, None)
    return looked_up, app_steps, result


def wrapped_sample_outcome(script, config) -> tuple[tuple[str, str, int], int]:
    """(outcome, draws) of run_scenario with harness.sample_echo behind a
    pass-through wrapper, as the traced benchmark run installs it."""
    draws = 0

    def pass_through(*args):
        nonlocal draws
        draws += 1
        return world.sample_echo(*args)

    with mock.patch.object(harness, "sample_echo", pass_through):
        result = reference_loop.outcome(harness.run_scenario, script, config, None)
    return result, draws


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(**WALKS)
# A scenario of one millisecond with every channel left out.
@example(doc={"schema_version": 1, "duration_ms": 1, "seed": 3}, config_doc=DEFAULT_CONFIG,
         missing=None)
# A ground target appearing inside the first round; the surface changes while it is empty.
@example(doc={"schema_version": 1, "duration_ms": 499, "seed": 5,
              "channels": {"ground": [{"t": 0, "distance_cm": None}, {"t": 11, "distance_cm": 40}]},
              "surface": [{"t": 0, "value": "tiles"}, {"t": 9, "value": "concrete"}]},
         config_doc=DEFAULT_CONFIG, missing=None)
# Every timeline steps at duration_ms; the last round runs past it.
@example(doc={"schema_version": 1, "duration_ms": 500, "seed": 8,
              "channels": {"left": [{"t": 0, "distance_cm": 80}, {"t": 500, "distance_cm": None}],
                           "right": [{"t": 0, "distance_cm": None}, {"t": 500, "distance_cm": 90}]},
              "surface": [{"t": 0, "value": "tiles"}, {"t": 500, "value": "concrete"}],
              "weather": [{"t": 0, "value": "dry"}, {"t": 500, "value": "wet"}]},
         config_doc=DEFAULT_CONFIG, missing=None)
# A weather change inside an empty stretch into a condition the table lacks.
@example(doc={"schema_version": 1, "duration_ms": 501, "seed": 13,
              "channels": {"ground": [{"t": 0, "distance_cm": None},
                                      {"t": 501, "distance_cm": 30}]},
              "weather": [{"t": 0, "value": "dry"}, {"t": 499, "value": "wet"}]},
         config_doc=DEFAULT_CONFIG, missing=("tiles", "wet"))
# The last round's final poll lands on a surface step and moves the clock onto a
# weather step at duration_ms, into a condition the table lacks: both loops end
# the run there without looking it up.
@example(doc={"schema_version": 1, "duration_ms": 1500, "seed": 21,
              "surface": [{"t": 0, "value": "tiles"}, {"t": 1490, "value": "concrete"}],
              "weather": [{"t": 0, "value": "dry"}, {"t": 1500, "value": "wet"}]},
         config_doc=DEFAULT_CONFIG, missing=("concrete", "wet"))
# Several quiet passes, then a target that appears mid-pass.
@example(doc=QUIET_THEN_TARGET, config_doc=DEFAULT_CONFIG, missing=None)
# A button press, an utterance and upload due instants inside a quiet stretch.
@example(doc=QUIET_WITH_APP_WORK, config_doc=SHORT_PASSES, missing=None)
# A weather step inside a quiet stretch into a missing calibration entry.
@example(doc=QUIET_INTO_MISSING_ENTRY, config_doc=DEFAULT_CONFIG, missing=("tiles", "wet"))
# A quiet stretch that reaches duration_ms.
@example(doc=QUIET_TO_THE_END, config_doc=DEFAULT_CONFIG, missing=None)
# One channel quiet over several passes while another has a target.
@example(doc=ONE_QUIET_CHANNEL, config_doc=DEFAULT_CONFIG, missing=None)
# A weather step into a missing entry while only one channel is quiet.
@example(doc=ONE_QUIET_INTO_MISSING_ENTRY, config_doc=DEFAULT_CONFIG, missing=("tiles", "wet"))
# Measurement rounds that end on and past the end of their segment.
@example(doc=ROUNDS_END_ON_AND_PAST_A_STEP, config_doc=DEFAULT_CONFIG, missing=None)
def test_skip_ahead_matches_naive_loop_byte_for_byte(doc, config_doc, missing):
    script = scenario_from_dict(doc)
    config = build_config(config_doc, missing)
    fast, slow = both_outcomes(script, config)
    assert fast == slow


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(**WALKS)
@example(doc=QUIET_THEN_TARGET, config_doc=DEFAULT_CONFIG, missing=None)
@example(doc=QUIET_WITH_APP_WORK, config_doc=SHORT_PASSES, missing=None)
@example(doc=QUIET_INTO_MISSING_ENTRY, config_doc=DEFAULT_CONFIG, missing=("tiles", "wet"))
@example(doc=QUIET_TO_THE_END, config_doc=DEFAULT_CONFIG, missing=None)
@example(doc=ONE_QUIET_CHANNEL, config_doc=DEFAULT_CONFIG, missing=None)
@example(doc=ONE_QUIET_INTO_MISSING_ENTRY, config_doc=DEFAULT_CONFIG, missing=("tiles", "wet"))
def test_booking_quiet_passes_does_what_polling_pass_by_pass_does(doc, config_doc, missing):
    # The segment lookups (each reads the channel, surface and weather
    # timelines, then the calibration), their order and times, and so any
    # ConfigError and the clock when it is raised, are those of the loop
    # that polls every pass; and so is the clock of every app step that
    # has work to do: the booked passes' app steps would have had none.
    # run_record names a timeline by its id, so both runs read one script.
    script = scenario_from_dict(doc)
    config = build_config(config_doc, missing)
    assert run_record(script, config) == run_record(script, config, PassByPassEcho)


@settings(max_examples=200,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(**WALKS)
def test_wrapped_sample_matches_segment_sampler_byte_for_byte(doc, config_doc, missing):
    script = scenario_from_dict(doc)
    config = build_config(config_doc, missing)
    plain = reference_loop.outcome(harness.run_scenario, script, config, None)
    wrapped, _ = wrapped_sample_outcome(script, config)
    assert wrapped == plain


def test_reference_polls_every_time_and_skip_ahead_does_not():
    # Guards the test above against comparing the new loop with itself.  All
    # channels are empty for one second: one firmware pass of three rounds of
    # 50 polls.  The reference looks the noise params up on each poll; the
    # skip-ahead loop once per channel, on entering its only segment.
    script = scenario_from_dict({"schema_version": 1, "duration_ms": 1000, "seed": 2})
    lookup = world.noise_params_for
    with mock.patch.object(world, "noise_params_for", wraps=lookup) as fast, \
            mock.patch.object(reference_loop, "noise_params_for", wraps=lookup) as slow:
        traces = both_outcomes(script)
    assert traces[0] == traces[1]
    assert (fast.call_count, slow.call_count) == (3, 150)


# -- quiet rounds and passes booked in one step -------------------------------------
#
# After a pass with no echo on any channel, run_scenario books the quiet
# passes that follow in one step, and firmware_tick books each round whose
# polls all fall in the channel's empty segment.  A measurement's truth
# comes from its segment unless the round ended at or past that segment's
# end.


def test_quiet_passes_are_booked_without_polling():
    # Guards the quiet-stretch examples of the byte-for-byte test against a
    # loop that never books a pass or a round:
    # QUIET_THEN_TARGET polls the three rounds of the pass from 0 ms and books
    # the passes from 1500, 3000 and 4500 ms in one step.  Of the three passes
    # from 6000 ms on it polls only the ground rounds (the target shortens
    # them): the firmware books the side rounds, whose every poll falls in
    # the empty segment their first round ended in.  So 3 + 3 rounds are
    # polled.  Polling pass by pass runs all 21 rounds of the seven passes.
    script = scenario_from_dict(QUIET_THEN_TARGET)
    rounds = []
    for echo in (world.ChannelEcho, PassByPassEcho):
        with mock.patch.object(harness, "ChannelEcho", echo), \
                mock.patch.object(firmware, "acquire_distance", wraps=acquire_distance) as spy:
            harness.run_scenario(script)
        rounds.append(spy.call_count)
    assert rounds == [6, 21]


def test_quiet_rounds_of_one_channel_are_booked_without_polling():
    # Guards ONE_QUIET_CHANNEL against a firmware that never books a round.
    # Of the six side rounds in the three passes before the right target
    # appears, it polls three: the first on each side, and the right round
    # whose last poll falls on the target's step.  After its first round the
    # left channel is never polled.
    polled = []

    def spy(channel, segment, clock, cfg):
        polled.append((channel.value, clock.now()))
        return acquire_distance(channel, segment, clock, cfg)

    with mock.patch.object(firmware, "acquire_distance", spy):
        harness.run_scenario(scenario_from_dict(ONE_QUIET_CHANNEL))
    assert polled[:6] == [("ground", 0), ("left", 90), ("right", 590), ("ground", 1090),
                          ("ground", 2180), ("right", 2770)]
    assert [channel for channel, _ in polled].count("left") == 1


def test_measurements_read_their_truth_from_the_segment_or_look_it_up():
    # Guards ROUNDS_END_ON_AND_PAST_A_STEP against a run loop that takes one
    # path only: the rounds that end at 90 ms (on the ground step) and 180 ms
    # (past the surface step) look up the channel's distance; the other ten
    # take their truth from the segment they drew from.
    script = scenario_from_dict(ROUNDS_END_ON_AND_PAST_A_STEP)
    channel_timelines = [id(timeline) for timeline in script.channels.values()]
    at = world.StepTimeline.at
    looked_up = []

    def spy_at(timeline, t_ms):
        if id(timeline) in channel_timelines:
            looked_up.append(t_ms)
        return at(timeline, t_ms)

    with mock.patch.object(world.StepTimeline, "at", spy_at):
        trace = harness.run_scenario(script)
    measurements = trace.kind("measurement")
    assert looked_up == [90, 180]
    assert len(measurements) == 12
    assert [(e["t"], e["true_cm"], e["surface"]) for e in measurements[:3]] == [
        (90, 300, "tiles"), (180, 100, "concrete"), (270, 200, "concrete")]


# -- the per-poll sample path ------------------------------------------------------
#
# perfbench's traced run counts polls by wrapping harness.sample_echo, and a
# ChannelEcho given any sample but world.sample_echo calls it once per poll
# instead of drawing through one echo_sampler closure per segment.  Both
# paths must give the same bytes.


@pytest.mark.parametrize("config_name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
@pytest.mark.parametrize("scenario_name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_bundled_walks_are_the_same_with_a_wrapped_sample(scenario_name, config_name):
    script = load_scenario(SCENARIO_DIR / f"{scenario_name}.json")
    config = load_config(CONFIG_DIR / f"{config_name}.json")
    with mock.patch.object(world, "echo_sampler", wraps=world.echo_sampler) as closures:
        plain = reference_loop.outcome(harness.run_scenario, script, config, None)
    wrapped, draws = wrapped_sample_outcome(script, config)
    assert plain[0] == "trace" and wrapped == plain
    # The runs took different paths: a closure per segment, a wrapper call per
    # poll.  Scenarios with no target (gps_outage, ...) draw nothing on either.
    assert closures.call_count < draws or closures.call_count == draws == 0


def test_a_plain_walk_takes_each_segment_in_one_call_and_a_traced_walk_polls():
    # Untraced, a round calls take once per segment it draws from, and no
    # reading goes through firmware.gate_valid.  Under perfbench's wrappers
    # (imported, never changed) the walk polls one by one, with one
    # gate_valid call per drawn sample, and spends the polls the takes did.
    script = load_scenario(SCENARIO_DIR / "walk_20min.json")
    config = load_config(CONFIG_DIR / "default.json")
    echo_sampler, segment = world.echo_sampler, world.ChannelEcho.segment
    takes: list[int] = []
    drawing_lookups = 0

    def spied_sampler(*args):
        draw = echo_sampler(*args)
        take = draw.take

        def counted_take(polls, bank, needed):
            takes.append(take(polls, bank, needed))
            return takes[-1]

        draw.take = counted_take
        return draw

    def spied_segment(echo, t_ms):
        nonlocal drawing_lookups
        found = segment(echo, t_ms)
        drawing_lookups += found[0] is not None
        return found

    def walk():
        with mock.patch.object(world, "echo_sampler", spied_sampler), \
                mock.patch.object(world.ChannelEcho, "segment", spied_segment), \
                mock.patch.object(firmware, "gate_valid", wraps=firmware.gate_valid) as gate:
            trace = harness.run_scenario(script, config).to_jsonl()
        return trace, gate.call_count

    plain, gate_calls = walk()
    assert gate_calls == 0 and drawing_lookups == len(takes) > 0
    assert all(spent >= 1 for spent in takes)

    polls, rounds_drawn = sum(takes), len(takes)
    takes.clear()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, gate_calls = walk()
    counters = tracer.counters()
    assert traced == plain and takes == []
    assert gate_calls == counters["gate_checks"] == counters["echo_draws"] == polls > rounds_drawn
