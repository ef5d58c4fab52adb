"""End-to-end simulation runs, the error report, expectation matching,
trace serialization, and the echoguide-sim command line."""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

import pytest

from echoguide import harness
from echoguide.app import Uploader
from echoguide.cli import main as sim_main
from echoguide.config import SystemConfig
from echoguide.errors import ConfigError, ScenarioError
from echoguide.harness import (
    assert_expectations,
    distance_error_experiment,
    error_report,
    load_expectations,
    run_scenario,
)
from echoguide.link import LinkBuffer
from echoguide.trace import TraceLog, row_measurement
from echoguide.world import Channel, SurfaceKind, Weather, load_scenario

from conftest import EXPECTATION_DIR, SCENARIO_DIR, make_script, stored_records, zero_noise_config
from reference_loop import both_outcomes

# The experiment's grid, as README gives it: 20 to 600 cm in 20 cm steps.
GRID_CM = range(20, 601, 20)


def ground_obstacle_script(**overrides):
    """90 cm baseline with a 40 cm hazard in front of the cane from 2 s on."""
    doc = {
        "channels": {
            "ground": [
                {"t": 0, "distance_cm": 90},
                {"t": 2000, "distance_cm": 40},
            ],
        },
    }
    doc.update(overrides)
    return make_script(duration_ms=6000, **doc)


# -- run_scenario behaviour ----------------------------------------------------------


def test_quiet_scene_raises_no_alerts():
    script = make_script(channels={
        "ground": [{"t": 0, "distance_cm": 200}],
        "left": [{"t": 0, "distance_cm": 300}],
        "right": [{"t": 0, "distance_cm": 300}],
    })
    trace = run_scenario(script, config=zero_noise_config())
    assert list(trace.kind("alert")) == []
    assert list(trace.kind("speak")) == []
    assert list(trace.kind("frame")) == []
    assert len(list(trace.kind("measurement"))) > 0


def test_obstacle_pipeline_fires_in_order_within_one_round():
    trace = run_scenario(ground_obstacle_script(), config=zero_noise_config())
    alerts = list(trace.kind("alert"))
    assert alerts and alerts[0]["channel"] == "ground"
    assert alerts[0]["distance_cm"] == 40
    first_alert_t = alerts[0]["t"]

    frames = [e for e in trace.kind("frame") if e["data"] == "Ground\n"]
    speaks = [e for e in trace.kind("speak") if e["message"] == "Ground"]
    motors = [e for e in trace.kind("motor") if e["channel"] == "ground" and e["vibrating"]]
    assert frames[0]["t"] == first_alert_t
    assert speaks[0]["t"] == first_alert_t
    assert motors[0]["t"] == first_alert_t


def test_alert_announcements_repeat_on_two_second_cadence():
    trace = run_scenario(ground_obstacle_script(), config=zero_noise_config())
    speak_times = [e["t"] for e in trace.kind("speak")]
    assert len(speak_times) >= 2
    gaps = [b - a for a, b in zip(speak_times, speak_times[1:])]
    assert all(gap >= 2000 for gap in gaps)


def test_mute_stops_speech_but_not_decoding():
    script = ground_obstacle_script(user_events=[
        {"t": 3000, "kind": "button"},
        {"t": 3100, "kind": "utterance", "text": "stop speaking"},
    ])
    trace = run_scenario(script, config=zero_noise_config())
    muted = [e for e in trace.kind("set_muted") if e["muted"]]
    assert len(muted) == 1 and muted[0]["t"] == 3100
    speaks = [e["t"] for e in trace.kind("speak")]
    assert speaks and all(t <= 3100 for t in speaks)
    decodes = [e["t"] for e in trace.kind("decode")]
    assert any(t > 3100 for t in decodes)  # tokens keep flowing, silently


def test_every_frame_is_decoded_exactly_once():
    trace = run_scenario(ground_obstacle_script(), config=zero_noise_config())
    frames = trace.kind("frame")
    decodes = trace.kind("decode")
    assert frames
    assert [(e["t"], e["data"]) for e in frames] == [(e["t"], e["message"] + "\n")
                                                     for e in decodes]


def test_trace_times_are_non_decreasing():
    trace = run_scenario(load_scenario(SCENARIO_DIR / "walk_20min.json"))
    times = [e["t"] for e in trace.events]
    assert times == sorted(times)


def test_upload_count_follows_duration_and_interval():
    script = make_script(duration_ms=1_200_000, channels={
        "ground": [{"t": 0, "distance_cm": 200}],
    })
    trace = run_scenario(script, config=zero_noise_config())
    uploads = list(trace.kind("upload"))
    assert len(uploads) == 4  # 20 min / 5 min
    assert [u["t"] for u in uploads] == [300_000, 600_000, 900_000, 1_200_000]
    assert all(u["outcome"] == "delivered" for u in uploads)
    assert [u["timestamp"] for u in uploads] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:10:00Z",
        "2015-06-01T00:15:00Z", "2015-06-01T00:20:00Z",
    ]


@pytest.mark.parametrize("duration_ms, polled_passes, uploads", [(299_000, 1, 0), (300_000, 2, 1)])
def test_an_upload_due_after_the_walk_does_not_bound_the_quiet_passes_booked(
        monkeypatch, duration_ms, polled_passes, uploads):
    # Nothing is in range, so after the first pass the firmware books the
    # passes that follow.  The upload due at 300 s fires only in a walk that
    # lasts that long: there the pass that ends on it is polled, and its app
    # step sends the fix.  In the shorter walk it bounds nothing.
    passes = []
    tick = harness.firmware_tick
    monkeypatch.setattr(harness, "firmware_tick", lambda *args: passes.append(1) or tick(*args))
    trace = run_scenario(make_script(duration_ms=duration_ms))
    assert len(passes) == polled_passes
    assert [upload["t"] for upload in trace.kind("upload")] == [300_000] * uploads


def spy_app_steps(monkeypatch) -> list[tuple]:
    """Log, in call order, each link drain as ("deframe", tokens) and each app
    step as ("tick", now_ms, the upload due before the step), from now on."""
    log: list[tuple] = []
    deframe, tick = LinkBuffer.deframe, Uploader.tick

    def spied_deframe(self):
        tokens = deframe(self)
        log.append(("deframe", len(tokens)))
        return tokens

    def spied_tick(self, now_ms, *args):
        log.append(("tick", now_ms, self.next_due_ms))
        return tick(self, now_ms, *args)

    monkeypatch.setattr(LinkBuffer, "deframe", spied_deframe)
    monkeypatch.setattr(Uploader, "tick", spied_tick)
    return log


@pytest.mark.parametrize("name", ["ground_obstacle", "offline_queue", "voice_call", "walk_20min"])
def test_the_app_steps_only_for_tokens_a_due_user_event_or_a_due_upload(monkeypatch, name):
    script = load_scenario(SCENARIO_DIR / f"{name}.json")
    log = spy_app_steps(monkeypatch)
    run_scenario(script)
    event_times = [event.t_ms for event in script.user_events]
    handled = -1  # the previous step handled the user events up to here
    tokens = steps = 0
    for entry in log:
        if entry[0] == "deframe":  # drained for the step that follows it
            tokens = entry[1]
            continue
        _, now_ms, upload_due = entry
        horizon = min(now_ms, script.duration_ms)
        user_event_due = any(handled < t <= horizon for t in event_times)
        assert tokens or user_event_due or upload_due <= horizon, (steps, entry)
        handled, tokens = horizon, 0
        steps += 1
    assert steps > 0


def test_a_user_event_between_two_frameless_passes_is_handled_as_before(monkeypatch):
    # Zero noise, a ground target at 200 cm (no alert) and then at 40 cm: a
    # pass takes 1090 ms (a 90 ms ground round and two empty 500 ms side
    # rounds), and only the passes that end at 4360 and 6540 ms send a
    # frame.  The button press and the utterance fall between the frameless
    # passes that end at 1090 and 2180 ms.
    script = make_script(duration_ms=6000,
                         channels={"ground": [{"t": 0, "distance_cm": 200},
                                              {"t": 3000, "distance_cm": 40}]},
                         user_events=[{"t": 1500, "kind": "button"},
                                      {"t": 1600, "kind": "utterance", "text": "stop speaking"}])
    log = spy_app_steps(monkeypatch)
    trace = run_scenario(script, config=zero_noise_config())
    # The app steps after the pass that ends first at or after the user events.
    assert [entry[1] for entry in log if entry[0] == "tick"] == [2180, 4360, 6540]
    assert [(e["t"], e["kind"]) for e in trace.events
            if e["kind"] not in ("no_echo", "measurement")] == [
        (1500, "button"), (1600, "utterance"), (1600, "set_muted"), (3360, "alert"),
        (3360, "motor"), (3360, "frame"), (3360, "decode"), (4450, "alert"), (5540, "alert"),
        (5540, "frame"), (5540, "decode")]
    # The bytes of the loop that stepped the app after every pass.
    assert hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest() == \
        "f6f3f3d1733a3ed1fb623e061503d603f3d228a1a1432749d7643c3ffd16dc2a"


def test_offline_window_queues_then_flushes_in_order(tmp_path):
    store_path = tmp_path / "locations.jsonl"
    script = load_scenario(SCENARIO_DIR / "offline_queue.json")
    trace = run_scenario(script, store_path=str(store_path))

    uploads = list(trace.kind("upload"))
    by_due = {u["t"]: u["outcome"] for u in uploads}
    # Server is down across the 5- and 10-minute marks, back before 15.
    assert by_due[300_000] == "queued"
    assert by_due[600_000] == "queued"
    assert by_due[900_000] == "delivered"
    assert by_due[1_200_000] == "delivered"

    acks = list(trace.kind("server_ack"))
    assert [a["t"] for a in acks] == [900_000, 900_000, 900_000, 1_200_000]
    assert [a["id"] for a in acks] == [1, 2, 3, 4]

    rows = [json.loads(line) for line in store_path.read_text().splitlines()]
    assert [r["timestamp"] for r in rows] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:10:00Z",
        "2015-06-01T00:15:00Z", "2015-06-01T00:20:00Z",
    ]


def count_fsyncs(monkeypatch) -> list[int]:
    """Record the descriptor of every os.fsync call from now on, and make it."""
    fsyncs: list[int] = []
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return fsyncs


def test_walk_without_a_store_writes_nothing(tmp_path, monkeypatch):
    # The store lives in memory: no fsync, and no file or directory left or
    # made under the temporary directory.
    fsyncs = count_fsyncs(monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    trace = run_scenario(load_scenario(SCENARIO_DIR / "offline_queue.json"))
    assert [a["id"] for a in trace.kind("server_ack")] == [1, 2, 3, 4]
    assert fsyncs == []
    assert list(tmp_path.iterdir()) == []


def test_walk_with_a_store_fsyncs_each_delivered_fix(tmp_path, monkeypatch):
    fsyncs = count_fsyncs(monkeypatch)
    store_path = tmp_path / "locations.jsonl"
    trace = run_scenario(load_scenario(SCENARIO_DIR / "offline_queue.json"),
                         store_path=str(store_path))
    delivered = [u for u in trace.kind("upload") if u["outcome"] == "delivered"]
    acks = list(trace.kind("server_ack"))
    assert len(fsyncs) == len(delivered) == len(acks) == 4
    # The file holds the delivered fixes in delivery order, with the acked ids.
    records = [r.as_dict() for r in stored_records(store_path)]
    fields = ("device_id", "latitude", "longitude", "timestamp", "provider")
    assert records == [{"id": a["id"], **{name: u[name] for name in fields}}
                       for a, u in zip(acks, delivered, strict=True)]


def test_no_provider_due_is_skipped_entirely():
    script = make_script(
        duration_ms=1_200_000,
        gps_available=[{"t": 0, "value": True},
                       {"t": 550_000, "value": False},
                       {"t": 650_000, "value": True}],
        network_available=[{"t": 0, "value": False}],
    )
    trace = run_scenario(script, config=zero_noise_config())
    uploads = list(trace.kind("upload"))
    assert [u["t"] for u in uploads] == [300_000, 900_000, 1_200_000]
    assert all(u["outcome"] == "delivered" for u in uploads)


def test_same_inputs_reproduce_identical_traces():
    script = load_scenario(SCENARIO_DIR / "walk_20min.json")
    first = run_scenario(script)
    second = run_scenario(script)
    assert first.to_jsonl() == second.to_jsonl()


def test_seed_override_changes_the_noise():
    script = load_scenario(SCENARIO_DIR / "ground_obstacle.json")
    base = run_scenario(script)
    other = run_scenario(script, seed=script.seed + 1)
    assert base.to_jsonl() != other.to_jsonl()


def test_a_negative_seed_is_refused():
    # random.Random seeds with the absolute value, so -3 would replay seed 3.
    script = load_scenario(SCENARIO_DIR / "ground_obstacle.json")
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        run_scenario(script, seed=-3)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        distance_error_experiment(seed=-1)
    assert run_scenario(script, seed=0).to_jsonl() != run_scenario(script, seed=3).to_jsonl()


def test_trace_jsonl_roundtrips_through_files(tmp_path):
    trace = run_scenario(load_scenario(SCENARIO_DIR / "ground_obstacle.json"))
    path = tmp_path / "run.jsonl"
    trace.write(path)
    again = TraceLog.read(path)
    assert again.to_jsonl() == trace.to_jsonl()


def test_missing_calibration_entry_fails_the_run_even_with_every_channel_empty():
    # The noise params are looked up as soon as a poll enters a segment, so a
    # gap in the table fails the first poll, target or not, as it did when
    # every poll looked them up.
    config = SystemConfig.default()
    del config.calibration[(SurfaceKind.TILES, Weather.DRY)]
    script = make_script(duration_ms=60_000)
    with pytest.raises(ConfigError, match="surface=tiles weather=dry"):
        run_scenario(script, config)
    fast, slow = both_outcomes(script, config)
    assert fast == slow == ("ConfigError",
                            "calibration has no entry for surface=tiles weather=dry", 0)


# -- error report ----------------------------------------------------------------


def synthetic_trace(rows):
    trace = TraceLog()
    for i, (measured, true_cm, surface, weather) in enumerate(rows):
        trace.add(row_measurement(i * 10, Channel.GROUND, measured, true_cm,
                                  surface, weather))
    return trace


def test_error_report_zero_noise_is_zero():
    trace = distance_error_experiment(zero_noise_config(), seed=7)
    report = error_report([trace])
    assert report.total_count == 4 * len(GRID_CM)
    assert report.overall_mape_pct == 0.0
    for stats in report.buckets.values():
        assert stats.mape_pct == 0.0 and stats.max_error_pct == 0.0


def test_error_report_computes_relative_errors():
    trace = synthetic_trace([
        (110, 100, SurfaceKind.TILES, Weather.DRY),    # 10 %
        (90, 100, SurfaceKind.TILES, Weather.DRY),     # 10 %
        (300, 300, SurfaceKind.CONCRETE, Weather.WET),  # 0 %
    ])
    report = error_report([trace])
    tiles = report.bucket(SurfaceKind.TILES, Weather.DRY)
    assert tiles.count == 2 and tiles.mape_pct == pytest.approx(10.0)
    assert tiles.max_error_pct == pytest.approx(10.0)
    assert report.overall_mape_pct == pytest.approx(20.0 / 3)
    assert report.mape_for_weather(Weather.DRY) == pytest.approx(10.0)
    assert report.mape_for_weather(Weather.WET) == pytest.approx(0.0)


def test_error_report_is_scale_invariant():
    base = [(105, 100, SurfaceKind.TILES, Weather.DRY),
            (210, 200, SurfaceKind.TILES, Weather.DRY)]
    scaled = [(m * 3, t * 3, s, w) for (m, t, s, w) in base]
    first = error_report([synthetic_trace(base)])
    second = error_report([synthetic_trace(scaled)])
    assert first.overall_mape_pct == pytest.approx(second.overall_mape_pct)


def test_error_report_skips_unusable_rows():
    trace = synthetic_trace([(50, None, SurfaceKind.TILES, Weather.DRY),
                             (50, 0, SurfaceKind.TILES, Weather.DRY)])
    report = error_report([trace])
    assert report.total_count == 0
    assert report.overall_mape_pct == 0.0


def test_error_report_merges_multiple_traces():
    a = synthetic_trace([(110, 100, SurfaceKind.TILES, Weather.DRY)])
    b = synthetic_trace([(90, 100, SurfaceKind.TILES, Weather.DRY)])
    report = error_report([a, b])
    assert report.bucket(SurfaceKind.TILES, Weather.DRY).count == 2


def test_experiment_measures_every_grid_point_deterministically():
    first = distance_error_experiment()
    second = distance_error_experiment()
    assert first.to_jsonl() == second.to_jsonl()
    measurements = first.kind("measurement")
    assert len(measurements) == 4 * len(GRID_CM)
    seen = {(m["surface"], m["weather"], m["true_cm"]) for m in measurements}
    assert len(seen) == len(measurements)
    assert sorted({m["true_cm"] for m in measurements}) == list(GRID_CM)


# -- expectation matching ------------------------------------------------------------


def demo_trace():
    return TraceLog([
        {"t": 10, "kind": "alert", "channel": "ground"},
        {"t": 20, "kind": "speak", "message": "Ground"},
        {"t": 30, "kind": "alert", "channel": "left"},
    ])


def test_eventually_advances_cursor_in_order():
    ok, detail = assert_expectations(demo_trace(), [
        {"op": "eventually", "kind": "alert", "where": {"channel": "ground"}},
        {"op": "eventually", "kind": "alert", "where": {"channel": "left"}},
    ])
    assert ok, detail


def test_eventually_fails_when_order_is_wrong():
    ok, detail = assert_expectations(demo_trace(), [
        {"op": "eventually", "kind": "alert", "where": {"channel": "left"}},
        {"op": "eventually", "kind": "alert", "where": {"channel": "ground"}},
    ])
    assert not ok
    assert "pattern 1" in detail


def test_never_applies_from_cursor_onward():
    # A ground alert exists, but only before the left alert; "never" passes.
    ok, _ = assert_expectations(demo_trace(), [
        {"op": "eventually", "kind": "alert", "where": {"channel": "left"}},
        {"op": "never", "kind": "alert", "where": {"channel": "ground"}},
    ])
    assert ok
    ok, detail = assert_expectations(demo_trace(), [
        {"op": "never", "kind": "alert", "where": {"channel": "left"}},
    ])
    assert not ok and "t=30ms" in detail


def test_never_does_not_advance_cursor():
    ok, _ = assert_expectations(demo_trace(), [
        {"op": "never", "kind": "call", "where": {}},
        {"op": "eventually", "kind": "alert", "where": {"channel": "ground"}},
    ])
    assert ok


def test_malformed_pattern_raises():
    with pytest.raises(ValueError):
        assert_expectations(demo_trace(), [{"op": "sometimes", "kind": "alert"}])
    with pytest.raises(ValueError):
        assert_expectations(demo_trace(), [{"op": "eventually"}])


@pytest.mark.parametrize("pattern, named", [
    ({"op": "eventually", "kind": "alert", "wher": {"channel": "ground"}}, "wher: unknown field"),
    ({"op": "never", "kind": "call", "where": ["channel"]}, "where: must be an object"),
    ({"op": "never", "kind": 3}, "kind: must be a non-empty string"),
    ("eventually alert", "must be an object"),
], ids=["misspelled where", "where not an object", "kind not a string", "not an object"])
def test_pattern_fields_are_read_by_a_table(tmp_path, pattern, named):
    # A misspelled filter used to be dropped, so the pattern matched any alert.
    patterns = [{"op": "eventually", "kind": "alert"}, pattern]
    with pytest.raises(ScenarioError, match=f"^pattern 1 is malformed: .*{named}"):
        assert_expectations(demo_trace(), patterns)
    path = tmp_path / "expect.json"
    path.write_text(json.dumps({"schema_version": 1, "patterns": patterns}))
    with pytest.raises(ScenarioError, match=f"expect.json: pattern 1 is malformed: .*{named}"):
        load_expectations(path)


@pytest.mark.parametrize("doc, named", [
    ({"schema_version": 99, "patterns": []}, "schema_version: must be 1"),
    ({"schema_version": 1, "paterns_extra": 1, "patterns": []}, "paterns_extra: unknown field"),
    ({"schema_version": 1}, "patterns: missing"),
    ({"patterns": {"op": "never", "kind": "call"}}, "patterns: must be a list"),
    ("never call", "expected a list of patterns or an object with one"),
], ids=["other schema version", "unknown top-level key", "no patterns", "patterns not a list",
        "neither list nor object"])
def test_expectation_file_is_read_by_a_table(tmp_path, doc, named):
    # Top-level keys other than patterns used to be ignored.
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: {named}$"):
        load_expectations(path)


def test_expectation_file_forms_load_alike(tmp_path):
    patterns = [{"op": "eventually", "kind": "alert", "where": {"channel": "ground"}},
                {"op": "never", "kind": "call"}]
    path = tmp_path / "expect.json"
    for doc in (patterns, {"patterns": patterns}, {"schema_version": 1, "patterns": patterns}):
        path.write_text(json.dumps(doc))
        assert load_expectations(path) == patterns


def test_bundled_expectations_hold_for_ground_obstacle():
    trace = run_scenario(load_scenario(SCENARIO_DIR / "ground_obstacle.json"))
    patterns = load_expectations(EXPECTATION_DIR / "ground_alert.json")
    ok, detail = assert_expectations(trace, patterns)
    assert ok, detail


# -- command line ----------------------------------------------------------------


def test_cli_run_writes_trace_and_summary(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    code = sim_main(["run", "--scenario", str(SCENARIO_DIR / "ground_obstacle.json"),
                     "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "events" in out
    trace = TraceLog.read(trace_path)
    assert len(list(trace.kind("alert"))) > 0


@pytest.mark.parametrize("name", ["ground_obstacle", "offline_queue", "voice_call", "walk_20min"])
def test_cli_run_summary_counts_the_trace_it_wrote(tmp_path, capsys, name):
    trace_path = tmp_path / "run.jsonl"
    assert sim_main(["run", "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                     "--trace", str(trace_path)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    trace = TraceLog.read(trace_path)
    uploads = trace.kind("upload")
    delivered = sum(upload["outcome"] == "delivered" for upload in uploads)
    assert summary == (
        f"{len(trace)} events, {len(trace.kind('measurement'))} measurements, "
        f"{len(trace.kind('alert'))} alerts, {len(trace.kind('speak'))} announcements, "
        f"{delivered}/{len(uploads)} uploads delivered, {len(trace.kind('call'))} calls")


@pytest.mark.parametrize("command,outputs", [
    (["run", "--scenario", str(SCENARIO_DIR / "ground_obstacle.json")], ("--trace", "--store")),
    (["experiment"], ("--trace", "--out")),
])
def test_cli_negative_seed_exits_2_before_writing(tmp_path, capsys, command, outputs):
    paths = [tmp_path / f"out{i}" for i in range(len(outputs))]
    argv = command + ["--seed", "-3"]
    for flag, path in zip(outputs, paths):
        argv += [flag, str(path)]
    assert sim_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -3\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_run_missing_scenario_exits_2(tmp_path, capsys):
    code = sim_main(["run", "--scenario", str(tmp_path / "absent.json")])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'absent.json'}: No such file or directory\n"


@pytest.mark.parametrize("flag, path, named", [
    ("--scenario", "bad.json", "duration_ms: must be >= 1"),
    ("--config", "badcfg.json", "firmware: sample_period_ms must be positive"),
    ("--trace", "no/such/dir/run.jsonl", "No such file or directory"),
    ("--trace", "tracedir", "Is a directory"),
], ids=["bad scenario", "bad config", "unwritable trace", "trace is a directory"])
def test_cli_run_error_starts_with_the_file_at_fault(tmp_path, monkeypatch, capsys, flag, path,
                                                     named):
    monkeypatch.chdir(tmp_path)
    scenario = json.loads((SCENARIO_DIR / "ground_obstacle.json").read_text(encoding="utf-8"))
    (tmp_path / "bad.json").write_text(json.dumps({**scenario, "duration_ms": 0}))
    (tmp_path / "badcfg.json").write_text(
        json.dumps({"schema_version": 1, "firmware": {"sample_period_ms": 0}}))
    (tmp_path / "tracedir").mkdir()
    files = {"--scenario": str(SCENARIO_DIR / "ground_obstacle.json"), flag: path}
    assert sim_main(["run", *(item for pair in files.items() for item in pair)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {named}\n"


def test_cli_run_on_a_directory_exits_2(tmp_path, capsys):
    assert sim_main(["run", "--scenario", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_cli_run_on_a_corrupt_store_exits_2_before_writing(tmp_path, capsys):
    store_path = tmp_path / "store.jsonl"
    store_path.write_text("not json\n")
    trace_path = tmp_path / "run.jsonl"
    code = sim_main(["run", "--scenario", str(SCENARIO_DIR / "ground_obstacle.json"),
                     "--store", str(store_path), "--trace", str(trace_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert re.fullmatch(re.escape(f"error: {store_path}:1: corrupt record (") + r".*\)\n",
                        captured.err)
    assert captured.out == ""
    assert not trace_path.exists()
    assert store_path.read_text() == "not json\n"


def test_cli_assert_pass_and_fail(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    sim_main(["run", "--scenario", str(SCENARIO_DIR / "ground_obstacle.json"),
              "--trace", str(trace_path)])
    capsys.readouterr()

    code = sim_main(["assert", "--trace", str(trace_path),
                     "--expect", str(EXPECTATION_DIR / "ground_alert.json")])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")

    bad = tmp_path / "impossible.json"
    bad.write_text(json.dumps([
        {"op": "eventually", "kind": "call", "where": {}},
    ]))
    code = sim_main(["assert", "--trace", str(trace_path), "--expect", str(bad)])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL")


@pytest.mark.parametrize("command, bad_file, text, named", [
    ("assert", "--expect", '[{"op": "eventually", "kind": ', "not valid JSON"),
    ("assert", "--expect", '[{"op": "eventually", "kind": "alert"}, {"op": "sometimes"}]',
     "pattern 1 is malformed"),
    ("assert", "--trace", '{"t": 0, "kind": "button"}\n{"t": 5, "kind"\n', "bad.json:2:"),
    ("report", "--trace", '{"t": 0, "kind": "button"}\nnot json\n', "bad.json:2:"),
], ids=["expectations not JSON", "pattern with a bad op", "assert on a torn trace line",
        "report on a trace line not JSON"])
def test_cli_bad_input_exits_2_naming_the_place(tmp_path, capsys, command, bad_file, text,
                                                named):
    files = {"--trace": tmp_path / "run.jsonl",
             "--expect": EXPECTATION_DIR / "ground_alert.json"}
    sim_main(["run", "--scenario", str(SCENARIO_DIR / "ground_obstacle.json"),
              "--trace", str(files["--trace"])])
    files[bad_file] = tmp_path / "bad.json"
    files[bad_file].write_text(text)
    capsys.readouterr()
    argv = [command, "--trace", str(files["--trace"])]
    if command == "assert":
        argv += ["--expect", str(files["--expect"])]
    assert sim_main(argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "bad.json") in err and named in err


@pytest.mark.parametrize("section, value, named", [
    ("scenario", {"user_events": [{"t": 1000, "kind": "utterance", "text": "\ud800 help"}]},
     "user_events[0].text"),
    ("config", {"app": {"device_id": "walker-\udfff"}}, "app.device_id"),
    ("config", {"app": {"phrases": {"Ground": {"english": "Ground \ud83d"}}}},
     "app.phrases.Ground.english"),
], ids=["utterance text", "device id", "phrase"])
def test_cli_run_refuses_a_lone_surrogate_before_writing(tmp_path, capsys, section, value,
                                                         named):
    # A lone surrogate is valid JSON but cannot be written as UTF-8: the run
    # used to die with a UnicodeEncodeError and leave an empty trace file.
    scenario = json.loads((SCENARIO_DIR / "ground_obstacle.json").read_text(encoding="utf-8"))
    config = {"schema_version": 1}
    {"scenario": scenario, "config": config}[section].update(value)
    paths = {name: tmp_path / f"{name}.json" for name in ("scenario", "config")}
    paths["scenario"].write_text(json.dumps(scenario), encoding="utf-8")
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    trace_path = tmp_path / "run.jsonl"
    code = sim_main(["run", "--scenario", str(paths["scenario"]),
                     "--config", str(paths["config"]), "--trace", str(trace_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{named}: must be Unicode text, without lone surrogates" in err
    assert not trace_path.exists()


GOOD_MEASUREMENT = {"t": 0, "kind": "measurement", "channel": "ground", "measured_cm": 50,
                    "true_cm": 50.0, "surface": "tiles", "weather": "dry"}


@pytest.mark.parametrize("field, value, named", [
    ("surface", "grass", "surface: must be one of: concrete, tiles"),
    ("measured_cm", None, "measured_cm: missing"),  # None: the field is left out
    ("true_cm", "50", "true_cm: must be a finite number"),
], ids=["unknown surface", "missing measured_cm", "string true_cm"])
def test_cli_report_on_a_bad_measurement_exits_2_naming_event_and_field(tmp_path, capsys,
                                                                          field, value, named):
    bad = {**GOOD_MEASUREMENT, "t": 10, field: value}
    if value is None:
        del bad[field]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD_MEASUREMENT) + "\n" + json.dumps(bad) + "\n")
    assert sim_main(["report", "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: trace 1, event 1 (t=10): {named}\n"


def test_cli_report_from_experiment_trace(tmp_path, capsys):
    trace_path = tmp_path / "exp.jsonl"
    report_path = tmp_path / "report.json"
    code = sim_main(["experiment", "--trace", str(trace_path)])
    assert code == 0
    capsys.readouterr()

    code = sim_main(["report", "--trace", str(trace_path), "--out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall MAPE" in out
    doc = json.loads(report_path.read_text())
    assert doc["total_count"] == 120
    assert len(doc["buckets"]) == 4


def test_cli_experiment_report_matches_library(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = sim_main(["experiment", "--seed", "42", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    expected = error_report([distance_error_experiment(seed=42)]).to_dict()
    assert doc == expected
