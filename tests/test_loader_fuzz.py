"""Fuzzing the config and scenario loaders: each bundled file, mutated by
swapping a value's type, adding or dropping a key or entry, or putting in a
boundary or non-finite number, either loads or raises ConfigError or
ScenarioError.  A config that loads also runs ground_obstacle to a trace or
to one of those errors."""

from __future__ import annotations

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, SCENARIO_DIR
from echoguide.config import config_from_dict
from echoguide.errors import ConfigError, ScenarioError
from echoguide.harness import run_scenario
from echoguide.world import load_scenario, scenario_from_dict


def bundled(directory) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.json"))]


CONFIGS = bundled(CONFIG_DIR)
SCENARIOS = bundled(SCENARIO_DIR)
GROUND_OBSTACLE = load_scenario(SCENARIO_DIR / "ground_obstacle.json")

# Small positive integers are left out: they are valid settings that only
# make the run long (upload_interval_ms: 1 is 60,000 fsynced uploads).
VALUES = st.sampled_from([
    None, True, False, 0, -1, 7, 2**31, 2**63, 10**400, -(10**400),
    0.5, -0.0, 1e-320, 1e308, -1e308, math.inf, -math.inf, math.nan,
    "", " ", "0.1", "tiles", "2015-06-01T00:00:00Z", "9999-12-31T23:59:59Z",
    [], [{}], {}, {"t": 0},
])
KEYS = st.sampled_from(["colour", "gps_avaliable", "t", "value", "text", "rel_sigma",
                        "distance_cm", "pulses_per_inch", "ground", "english"])


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


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(SCENARIOS))
def test_mutated_scenarios_load_or_raise_scenario_error(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        pass


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
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
