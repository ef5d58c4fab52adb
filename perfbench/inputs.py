"""Seeded input generators for the benchmark.

Everything the program under test receives is built here from the workload
seed: run seeds for the bundled walks, a dense obstacle course, a tracking
store of generated fixes, and the request mix a guardian client sends.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import calendar
import json
import random
import time
from dataclasses import dataclass

COURSE_DURATION_MS = 1_200_000
EPOCH_S = calendar.timegm((2015, 6, 1, 0, 0, 0))
UPLOAD_PERIOD_S = 300

# Alert thresholds of the default firmware config: ground 60 cm, sides 100 cm.
_NEAR_FAR_CM = {
    "ground": ((20.0, 59.0), (61.0, 300.0)),
    "left": ((30.0, 99.0), (101.0, 500.0)),
    "right": ((30.0, 99.0), (101.0, 500.0)),
}
_COMMAND_PHRASES = ("stop speaking", "start speaking", "I need help", "what time is it")


def seed_stream(seed: int, salt: str):
    """Endless run seeds drawn from the workload seed, one stream per salt."""
    rng = random.Random(f"{salt}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def _steps(rng: random.Random, lo_ms: int, hi_ms: int, value) -> list[dict]:
    """Piecewise steps from t=0 to the course end, each lasting lo..hi ms."""
    steps, t = [], 0
    while t < COURSE_DURATION_MS:
        steps.append({"t": t, **value(rng)})
        t += rng.randint(lo_ms, hi_ms)
    return steps


def dense_course(seed: int) -> dict:
    """A 20-minute course where every channel always has a target.

    Distances step every 2-15 s and land on either side of each channel's
    alert threshold, so every poll draws randomness and alerts, frames and
    announcements are frequent.  Surface and weather change, and the user
    presses the button and speaks commands, including mute and unmute.
    """
    rng = random.Random(f"course:{seed}")

    def distance(channel: str):
        near, far = _NEAR_FAR_CM[channel]
        return lambda r: {"distance_cm": round(r.uniform(*(near if r.random() < 0.5 else far)), 1)}

    channels = {ch: _steps(rng, 2_000, 15_000, distance(ch)) for ch in _NEAR_FAR_CM}
    surface = _steps(rng, 30_000, 120_000,
                     lambda r: {"value": r.choice(("tiles", "concrete"))})
    weather = _steps(rng, 60_000, 240_000, lambda r: {"value": r.choice(("dry", "wet"))})

    lat, lon = 22.9006, 89.5024
    geo_path = []
    for t in range(0, COURSE_DURATION_MS + 1, 60_000):
        geo_path.append({"t": t, "lat": round(lat, 6), "lon": round(lon, 6)})
        lat += rng.uniform(-0.0004, 0.0004)
        lon += rng.uniform(-0.0004, 0.0004)

    events: list[dict] = []
    t = rng.randint(5_000, 20_000)
    while t < COURSE_DURATION_MS - 20_000:
        events.append({"t": t, "kind": "button"})
        if rng.random() < 0.8:
            t += rng.randint(1_000, 6_000)
            events.append({"t": t, "kind": "utterance", "text": rng.choice(_COMMAND_PHRASES)})
        t += rng.randint(20_000, 90_000)
    # Speech outside a listening window must be ignored.
    events.append({"t": COURSE_DURATION_MS - 5_000, "kind": "utterance", "text": "stop speaking"})

    return {
        "schema_version": 1,
        "duration_ms": COURSE_DURATION_MS,
        "seed": rng.randrange(1, 2**31),
        "start_utc": "2015-06-01T00:00:00Z",
        "channels": channels,
        "surface": surface,
        "weather": weather,
        "geo_path": geo_path,
        "user_events": events,
    }


def utc(epoch_offset_s: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(EPOCH_S + epoch_offset_s))


def device_ids(count: int) -> list[str]:
    return [f"walker-{d:02d}" for d in range(1, count + 1)]


def store_lines(seed: int, devices: int, fixes_per_device: int) -> list[str]:
    """JSON lines of a tracking store, in the format TrackStore writes.

    Each walker uploads every 5 minutes from its own start offset.  About
    2 % of fixes arrive late (queued while offline), so ids and timestamps
    disagree in order, as they do after a real outage.
    """
    rng = random.Random(f"store:{seed}")
    arrivals = []
    for device in device_ids(devices):
        offset = rng.randrange(UPLOAD_PERIOD_S)
        lat, lon = rng.uniform(22.80, 23.00), rng.uniform(89.40, 89.60)
        for i in range(fixes_per_device):
            ts = offset + i * UPLOAD_PERIOD_S
            delay = rng.randrange(600, 3_600) if rng.random() < 0.02 else 0
            lat = min(90.0, max(-90.0, lat + rng.gauss(0.0, 0.0003)))
            lon = min(180.0, max(-180.0, lon + rng.gauss(0.0, 0.0003)))
            fields = {
                "device_id": device,
                "latitude": round(lat, 6),
                "longitude": round(lon, 6),
                "timestamp": utc(ts),
                "provider": "gps" if rng.random() < 0.85 else "network",
            }
            arrivals.append((ts + delay, len(arrivals), fields))
    arrivals.sort(key=lambda a: (a[0], a[1]))
    # Same bytes as json.dumps(record, sort_keys=True), written out by hand
    # because generation is otherwise the slowest part of set-up.
    return [
        f'{{"device_id": {json.dumps(f["device_id"])}, "id": {record_id}, '
        f'"latitude": {f["latitude"]!r}, "longitude": {f["longitude"]!r}, '
        f'"provider": "{f["provider"]}", "timestamp": "{f["timestamp"]}"}}'
        for record_id, (_, _, f) in enumerate(arrivals, start=1)
    ]


@dataclass(frozen=True)
class Request:
    kind: str  # "latest" | "history" | "post"
    device_id: str


# One block of the request mix: 45 % latest, 45 % history, 10 % posted fixes.
_MIX_BLOCK = ("latest",) * 9 + ("history",) * 9 + ("post",) * 2


def request_stream(seed: int, stream: int, devices: list[str]):
    """Endless request mix, shuffled in blocks of 20 so that every stretch
    of a run has the same shares; each request names a random device."""
    rng = random.Random(f"requests:{seed}:{stream}")
    while True:
        block = list(_MIX_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield Request(kind, rng.choice(devices))
