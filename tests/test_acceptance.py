"""Acceptance suite: one test per release criterion, end to end.

Each test exercises the shipped behaviour through public interfaces only
(scenario files, the simulator, real server subprocesses, the CLIs).  The
terminal summary prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import json
import random
import time

from echoguide.firmware import (
    FirmwareConfig,
    gate_valid,
    median9,
    pulses_to_cm,
)
from echoguide.harness import (
    distance_error_experiment,
    error_report,
    run_scenario,
)
from echoguide.link import LinkBuffer
from echoguide.tracker import main as tracker_main
from echoguide.world import (
    GATE_HIGH_CM,
    GATE_LOW_CM,
    PULSES_PER_CM,
    SurfaceKind,
    Weather,
    load_scenario,
    scenario_from_dict,
)

from conftest import SCENARIO_DIR, make_script, zero_noise_config


def test_c01_pulse_conversion_roundtrips_every_distance():
    started = time.perf_counter()
    for distance in range(1, 645):
        assert pulses_to_cm(distance * PULSES_PER_CM) == distance
    assert time.perf_counter() - started < 1.0


def test_c02_distance_gate_is_strict_at_both_ends():
    assert not gate_valid(GATE_LOW_CM)       # 15 cm: rejected
    assert not gate_valid(GATE_HIGH_CM)      # 645 cm: rejected
    assert gate_valid(GATE_LOW_CM + 1)       # 16 cm: accepted
    assert gate_valid(GATE_HIGH_CM - 1)      # 644 cm: accepted


def test_c03_median_rejects_four_outliers_in_ten_thousand_trials():
    rng = random.Random(202)
    for _ in range(10_000):
        clean = rng.randint(16, 644)
        outliers = [rng.randint(16, 644) for _ in range(4)]
        samples = [clean] * 5 + outliers
        rng.shuffle(samples)
        assert median9(samples) == clean


def test_c04_alert_threshold_is_exact_at_sixty_centimetres():
    config = zero_noise_config()

    close = make_script(duration_ms=2000, channels={
        "ground": [{"t": 0, "distance_cm": 59}]})
    trace = run_scenario(close, config=config)
    alerts = list(trace.kind("alert"))
    assert alerts and all(e["channel"] == "ground" and e["distance_cm"] == 59
                          for e in alerts)
    assert any(e["vibrating"] for e in trace.kind("motor"))
    assert any(e["data"] == "Ground\n" for e in trace.kind("frame"))
    assert any(e["message"] == "Ground" for e in trace.kind("speak"))

    at_threshold = make_script(duration_ms=2000, channels={
        "ground": [{"t": 0, "distance_cm": 60}]})
    quiet = run_scenario(at_threshold, config=config)
    assert list(quiet.kind("alert")) == []
    assert list(quiet.kind("frame")) == []
    assert list(quiet.kind("speak")) == []
    assert not any(e["vibrating"] for e in quiet.kind("motor"))


def test_c05_framing_survives_a_thousand_random_chunkings():
    rng = random.Random(303)
    words = ["Ground", "Left", "Right"]
    for _ in range(1000):
        tokens = [rng.choice(words) for _ in range(10)]
        stream = b"".join(t.encode() + b"\n" for t in tokens)
        cuts = sorted(rng.randrange(len(stream) + 1) for _ in range(rng.randint(0, 6)))
        pieces = []
        last = 0
        for cut in cuts + [len(stream)]:
            if cut > last:
                pieces.append(stream[last:cut])
                last = cut
        link = LinkBuffer()
        received = []
        for piece in pieces:
            link.pending.extend(piece)
            received.extend(link.deframe())
        assert received == tokens
        assert not link.pending


def test_c06_voice_command_calls_exactly_once_and_needs_the_button():
    doc = json.loads((SCENARIO_DIR / "voice_call.json").read_text())
    trace = run_scenario(scenario_from_dict(doc))
    calls = list(trace.kind("call"))
    assert len(calls) == 1
    assert calls[0]["t"] == 12_000
    assert calls[0]["number"] == "+15555550100"

    doc_no_button = dict(doc)
    doc_no_button["user_events"] = [
        e for e in doc["user_events"] if e["kind"] != "button"]
    silent = run_scenario(scenario_from_dict(doc_no_button))
    assert list(silent.kind("call")) == []


def test_c07_twenty_minute_walk_uploads_on_schedule_in_under_a_second():
    script = load_scenario(SCENARIO_DIR / "walk_20min.json")
    started = time.perf_counter()
    trace = run_scenario(script)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    uploads = list(trace.kind("upload"))
    assert len(uploads) == 4
    assert all(u["outcome"] == "delivered" for u in uploads)
    assert [u["timestamp"] for u in uploads] == [
        "2015-06-01T00:05:00Z", "2015-06-01T00:10:00Z",
        "2015-06-01T00:15:00Z", "2015-06-01T00:20:00Z",
    ]


def test_c08_position_provider_falls_back_to_network_during_gps_outage():
    script = load_scenario(SCENARIO_DIR / "gps_outage.json")
    trace = run_scenario(script)
    uploads = {u["t"]: u for u in trace.kind("upload")}
    assert uploads[600_000]["provider"] == "network"
    for due in (300_000, 900_000, 1_200_000):
        assert uploads[due]["provider"] == "gps"
    for due, upload in uploads.items():
        if upload["provider"] == "network":
            assert not script.gps.at(due)


def test_c09_server_restart_preserves_every_answer(server_factory):
    server = server_factory("persist.jsonl")
    for n in range(100):
        status, _ = server.post_fix({
            "device_id": "walker-1",
            "latitude": round(22.9 + n * 1e-4, 6),
            "longitude": round(89.5 + n * 1e-4, 6),
            "timestamp": f"2015-06-01T{n // 60:02d}:{n % 60:02d}:00Z",
            "provider": "gps" if n % 3 else "network",
        })
        assert status == 201
    _, latest_before = server.get("/api/locations/latest?device_id=walker-1")
    _, history_before = server.get("/api/locations?device_id=walker-1&limit=1000")
    assert len(history_before) == 100
    server.stop()

    reborn = server_factory("persist.jsonl")
    _, latest_after = reborn.get("/api/locations/latest?device_id=walker-1")
    _, history_after = reborn.get("/api/locations?device_id=walker-1&limit=1000")
    assert latest_after == latest_before
    assert history_after == history_before


def test_c10_tracker_reports_what_the_walk_uploaded(server_factory, tmp_path, capsys):
    store_path = tmp_path / "walk.jsonl"
    script = load_scenario(SCENARIO_DIR / "walk_20min.json")
    trace = run_scenario(script, store_path=str(store_path))
    delivered = [u for u in trace.kind("upload") if u["outcome"] == "delivered"]
    last = delivered[-1]

    server = server_factory("walk.jsonl")
    code = tracker_main(["--server", f"127.0.0.1:{server.port}",
                         "--device", "walker-1", "get-location"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.split(" ") == [
        "walker-1",
        f"{last['latitude']:.6f}",
        f"{last['longitude']:.6f}",
        last["timestamp"],
        last["provider"],
    ]

    out_path = tmp_path / "point.geojson"
    code = tracker_main(["--server", f"127.0.0.1:{server.port}",
                         "--device", "walker-1", "show-map", "--out", str(out_path)])
    assert code == 0
    feature = json.loads(out_path.read_text())
    assert feature["type"] == "Feature"
    assert feature["geometry"]["type"] == "Point"
    lon, lat = feature["geometry"]["coordinates"]
    assert lon == round(last["longitude"], 6)
    assert lat == round(last["latitude"], 6)


def test_c11_distance_error_profile_is_calibrated():
    started = time.perf_counter()
    trace = distance_error_experiment()  # seed 42, default calibration
    report = error_report([trace])
    assert time.perf_counter() - started < 5.0

    dry = report.mape_for_weather(Weather.DRY)
    assert 2.0 <= dry <= 5.0

    tiles_dry = report.bucket(SurfaceKind.TILES, Weather.DRY).mape_pct
    concrete_dry = report.bucket(SurfaceKind.CONCRETE, Weather.DRY).mape_pct
    assert tiles_dry < concrete_dry

    for surface in (SurfaceKind.TILES, SurfaceKind.CONCRETE):
        wet = report.bucket(surface, Weather.WET).mape_pct
        dry_surface = report.bucket(surface, Weather.DRY).mape_pct
        assert wet > dry_surface


def test_c12_every_bundled_scenario_replays_byte_identically():
    scenario_files = sorted(SCENARIO_DIR.glob("*.json"))
    assert scenario_files
    for path in scenario_files:
        script = load_scenario(path)
        first = run_scenario(script)
        second = run_scenario(script)
        assert first.to_jsonl() == second.to_jsonl(), path.name
