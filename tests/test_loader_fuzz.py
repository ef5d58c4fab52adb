"""Fuzzing the loaders.  Each bundled config and scenario, mutated by
swapping a value's type, adding or dropping a key or entry, or putting in a
boundary or non-finite number, either loads or raises ConfigError or
ScenarioError.  A config that loads also runs ground_obstacle to a trace or
to one of those errors.  A tracking-store file of lines as insert writes
them, with bytes flipped, lines cut short, values of another type put in or
fields dropped, either opens and answers queries or raises StorageError.  A
posted fix mutated the same way, or given another timestamp spelling, is
refused naming one of its fields, or is stored and then answers queries.
A server reply so mutated makes the tracker exit 0, or 2 naming a field,
and a mutated expectation file loads or raises ScenarioError."""

from __future__ import annotations

import copy
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, EXPECTATION_DIR, SCENARIO_DIR, stored_records
from echoguide import tracker
from echoguide.config import config_from_dict
from echoguide.errors import ConfigError, ScenarioError
from echoguide.harness import assert_expectations, load_expectations, run_scenario
from echoguide.server import (
    FixValidationError,
    StorageError,
    TrackStore,
    validate_fix,
)
from echoguide.trace import TraceLog
from echoguide.world import load_scenario, scenario_from_dict


def bundled(directory) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.json"))]


CONFIGS = bundled(CONFIG_DIR)
SCENARIOS = bundled(SCENARIO_DIR)
GROUND_OBSTACLE = load_scenario(SCENARIO_DIR / "ground_obstacle.json")

# Small positive integers are left out: they are valid settings that only
# make the run long (upload_interval_ms: 1 is 60,000 uploads, each validated and stored).
VALUES = st.sampled_from([
    None, True, False, 0, -1, 7, 2**31, 2**63, 10**400, -(10**400),
    0.5, -0.0, 1e-320, 1e308, -1e308, math.inf, -math.inf, math.nan,
    "", " ", "0.1", "tiles", "2015-06-01T00:00:00Z", "9999-12-31T23:59:59Z",
    [], [{}], {}, {"t": 0},
])
KEY_NAMES = ("colour", "gps_avaliable", "t", "value", "text", "rel_sigma", "distance_cm",
             "pulses_per_inch", "ground", "english")
KEYS = st.sampled_from(KEY_NAMES)


def paths(node, here=()):
    """Every path to a value inside a JSON document, the root first."""
    yield here
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, here + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, here + (index,))


def at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


@st.composite
def mutated(draw, docs: list[dict]) -> dict:
    """A copy of one of `docs` with one value replaced, one key added, or one
    key or list entry dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(paths(doc))))
    node = at(doc, path)
    how = draw(st.sampled_from(["replace", "add", "drop"]))
    if how == "replace" and path:
        at(doc, path[:-1])[path[-1]] = draw(VALUES)
    elif how == "add" and isinstance(node, dict):
        node[draw(KEYS)] = draw(VALUES)
    elif how == "drop" and isinstance(node, (dict, list)) and node:
        del node[draw(st.sampled_from(list(node) if isinstance(node, dict)
                                      else list(range(len(node)))))]
    elif path:
        at(doc, path[:-1])[path[-1]] = draw(VALUES)
    else:
        doc = draw(VALUES)
    return doc


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(SCENARIOS))
def test_mutated_scenarios_load_or_raise_scenario_error(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        pass


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(CONFIGS))
def test_mutated_configs_load_and_run_or_raise_config_error(doc):
    try:
        config = config_from_dict(doc)
    except ConfigError:
        return
    try:
        trace = run_scenario(GROUND_OBSTACLE, config)
    except (ConfigError, ScenarioError):
        return
    assert len(trace) > 0


FIXES = st.fixed_dictionaries({
    "device_id": st.sampled_from(["walker-1", "walker-2"]),
    "latitude": st.sampled_from([-90.0, -0.0, 22.9, 90.0]),
    "longitude": st.sampled_from([-180.0, 0.0, 89.5, 1e-05, 180.0]),
    "timestamp": st.sampled_from(["2015-06-01T00:00:00Z", "2015-06-01T00:00:01.5Z"]),
    "provider": st.sampled_from(["gps", "network"]),
})


@st.composite
def mutated_store(draw) -> bytes:
    """Lines as TrackStore.insert writes them, then one to three mutations:
    a field's value swapped for one of another type, a field dropped, a line
    cut short, a byte of the file flipped (a newline too), or the file cut
    anywhere (a torn tail)."""
    docs = [{"id": n, **fix} for n, fix in enumerate(draw(st.lists(FIXES, min_size=1,
                                                                      max_size=3)), 1)]
    lines = [json.dumps(doc, sort_keys=True).encode() for doc in docs]
    hows = draw(st.lists(st.sampled_from(["swap", "drop", "cut line", "flip", "cut file"]),
                         min_size=1, max_size=3))
    for how in hows:
        i = draw(st.integers(0, len(lines) - 1))
        if how == "cut line":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif how in ("swap", "drop"):
            field = draw(st.sampled_from(sorted(docs[i])))
            if how == "swap":
                docs[i][field] = draw(VALUES)
            else:
                del docs[i][field]
            lines[i] = json.dumps(docs[i], sort_keys=True).encode()
    content = bytearray(b"".join(line + b"\n" for line in lines))
    for _ in range(hows.count("flip")):
        content[draw(st.integers(0, len(content) - 1))] ^= draw(st.integers(1, 255))
    if "cut file" in hows:
        del content[draw(st.integers(0, len(content))):]
    return bytes(content)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("store") / "locations.jsonl")


@settings(max_examples=200)
@given(content=mutated_store())
def test_mutated_store_files_open_or_raise_storage_error(store_path, content):
    with open(store_path, "wb") as fh:
        fh.write(content)
    try:
        store = TrackStore(store_path)
    except StorageError:
        event("refused")
        return
    event("opened")
    try:
        for record in stored_records(store_path):  # whole lines now: a torn one was cut
            try:
                store.recent(record.device_id, 1)
            except StorageError:
                pass
    finally:
        store.close()


FIX_FIELDS = ("device_id", "latitude", "longitude", "timestamp", "provider")
COORDINATES = st.sampled_from([90, -90, 90.000001, -180.0, 180, 180.5, -1e-320, 10**400])
TIMESTAMPS = st.sampled_from([
    "2015-06-01Z", "2015-06-01", "2015-06-01T00Z", "2015-06-01T00:00Z",
    "2015-06-01T00:00:00", "2015-06-01T00:00:00+00:00", "2015-06-01T00:00:00+06:00Z",
    "2015-06-01 00:00:00Z", "2015-06-01T00:00:00.5Z", "2015-06-01T24:00:00Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59.999999Z", "2015-13-01T00:00:00Z", "Z", "",
])


@st.composite
def mutated_fix(draw) -> object:
    """A valid fix body with one value swapped for one of another type, a
    boundary number or another timestamp spelling, one key dropped or added,
    or the body replaced whole."""
    fix = draw(FIXES)
    how = draw(st.sampled_from(["swap", "coordinate", "timestamp", "drop", "add", "whole"]))
    if how == "swap":
        fix[draw(st.sampled_from(FIX_FIELDS))] = draw(VALUES)
    elif how == "coordinate":
        fix[draw(st.sampled_from(["latitude", "longitude"]))] = draw(COORDINATES)
    elif how == "timestamp":
        fix["timestamp"] = draw(TIMESTAMPS)
    elif how == "drop":
        del fix[draw(st.sampled_from(FIX_FIELDS))]
    elif how == "add":
        fix[draw(KEYS)] = draw(VALUES)
    else:
        return draw(VALUES)
    return fix


@pytest.fixture(scope="module")
def fix_store(tmp_path_factory):
    """One store for every example, so each accepted fix is also sorted
    against those accepted before it."""
    store = TrackStore(str(tmp_path_factory.mktemp("fixes") / "locations.jsonl"))
    yield store
    store.close()


@settings(max_examples=300)
@given(body=mutated_fix())
def test_mutated_fixes_are_refused_by_field_or_stored_and_served(fix_store, body):
    try:
        fields = validate_fix(body)
    except FixValidationError as exc:
        event("refused")
        assert exc.field in FIX_FIELDS + ("body",) or exc.field in body
        return
    event("accepted")
    record = fix_store.insert(body)
    assert fix_store.recent(fields["device_id"], 1) != []
    assert record in fix_store.recent(fields["device_id"], 10**6)


@st.composite
def mutated_reply(draw) -> tuple[str, object]:
    """A tracker command and the 200 reply it gets: the stored record of a
    fix mutated as above, alone for get-location and show-map or after a
    well-formed one of the same device for track, or a reply of another
    shape."""
    command = draw(st.sampled_from(["get-location", "show-map", "track"]))
    fix = draw(mutated_fix())
    record = {"id": draw(st.just(1) | st.sampled_from([0, -3, True, 2.0, "1"])), **fix} \
        if isinstance(fix, dict) else fix
    if command != "track":
        return command, record
    before = {"id": 1, **draw(FIXES)}
    if isinstance(record, dict) and isinstance(record.get("device_id"), str):
        before["device_id"] = record["device_id"]
    return command, [before, record][draw(st.integers(0, 1)):]


@settings(max_examples=200)
@given(reply=mutated_reply())
def test_mutated_tracker_replies_exit_0_or_2_naming_a_field(reply):
    command, payload = reply
    # Ask for the mutated fix's device, so that a well-formed reply is accepted.
    fix = payload[-1] if command == "track" and isinstance(payload, list) and payload else payload
    device = fix.get("device_id") if isinstance(fix, dict) else None
    err = io.StringIO()
    body = json.dumps(payload).encode()
    with mock.patch.object(tracker, "_get_reply", return_value=(200, "OK", body)), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = tracker.main(["--device", device if isinstance(device, str) else "walker-1",
                             command])
    err = err.getvalue()
    if code == tracker.EXIT_OK:
        event("accepted")
        return
    event("refused")
    assert code == tracker.EXIT_UNREACHABLE and err.startswith("bad server reply: ")
    field = err.removeprefix("bad server reply: ").split(": ")[0].rpartition(".")[2]
    assert (field in FIX_FIELDS + ("id", "reply") or field in KEY_NAMES
            or re.fullmatch(r"\[[01]\]", field))  # a trail entry that is not an object


EXPECTATIONS = bundled(EXPECTATION_DIR)


@settings(max_examples=200)
@given(doc=mutated(EXPECTATIONS))
def test_mutated_expectation_files_load_or_raise_scenario_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("expect") / "expect.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        patterns = load_expectations(str(path))
    except ScenarioError:
        event("refused")
        return
    event("loaded")
    assert_expectations(TraceLog([{"t": 0, "kind": "alert", "channel": "ground"}]), patterns)
