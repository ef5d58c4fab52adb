"""Tracking store: the load and the per-device index against the original
json.loads pass and scan (reference_store.py), and the store's crash
safety on load and on a failed append.

The index test interleaves inserts, latest/history queries and reopens of
the store from disk, and takes its expected answers from a log of its own
inserts.  Its timestamps repeat instants in more than one valid spelling
('...:00Z', '...:00.000Z', '...:00.5Z', a space for the 'T'), so equal
instants fall back to the id and text order is not time order.

The load test writes store files of lines as insert writes them, mixed
with other spellings of a fix, corrupt lines, blank lines and a torn tail,
and requires the same error as the reference load, or a store that numbers
its next insert and answers each device's first query as one of the
reference's records does.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference_store
from echoguide import server
from echoguide.server import (
    FixRecord,
    FixValidationError,
    StorageError,
    TrackStore,
    parse_record_timestamp,
    validate_fix,
)

from conftest import at_second, stored_records

DEVICES = ("walker-1", "walker-2", "walker-3")
FIX_FIELDS = ("device_id", "latitude", "longitude", "timestamp", "provider")
LIMITS = (1, 2, 50, 1000)


def _spellings(second: int) -> list[str]:
    clock = f"00:00:{second:02d}"
    return [f"2015-06-01T{clock}Z", f"2015-06-01T{clock}.000Z", f"2015-06-01T{clock}.500Z",
            f"2015-06-01T{clock}.5Z", f"2015-06-01T{clock}.000001Z", f"2015-06-01 {clock}Z"]


def _parses(text: str) -> bool:
    try:
        parse_record_timestamp(text)
    except ValueError:
        return False  # e.g. '.5Z' before Python 3.11
    return True


TIMESTAMPS = [t for second in range(3) for t in _spellings(second) if _parses(t)]


def fix(device_id: str, timestamp: str, latitude: float = 22.9) -> dict:
    return {"device_id": device_id, "latitude": latitude, "longitude": 89.5,
            "timestamp": timestamp, "provider": "gps"}


devices = st.sampled_from(DEVICES)
queried = st.sampled_from(DEVICES + ("nobody",))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), devices, st.sampled_from(TIMESTAMPS)),
        st.tuples(st.just("insert"), devices, st.sampled_from(TIMESTAMPS)),
        st.tuples(st.just("latest"), queried),
        st.tuples(st.just("history"), queried, st.sampled_from(LIMITS)),
        st.just(("reopen",)),
    ),
    min_size=4,
    max_size=60,
)


def check_against_reference(store: TrackStore, records: list[FixRecord], op: tuple) -> None:
    """The store answers a latest or history op as the scan of records does."""
    if op[0] == "latest":
        latest = reference_store.latest_fix(records, op[1])
        assert store.recent(op[1], 1) == ([] if latest is None else [latest])
    else:
        assert store.recent(op[1], op[2]) == reference_store.history(records, *op[1:])


@settings(max_examples=200)
@given(ops=operations)
@example(ops=[("insert", "walker-1", "2015-06-01T00:00:01Z"), ("latest", "walker-1"),
              ("insert", "walker-1", "2015-06-01T00:00:00.500Z"),
              ("insert", "walker-1", "2015-06-01T00:00:01.000Z"),
              ("history", "walker-1", 2), ("reopen",), ("history", "walker-1", 50)])
@example(ops=[("insert", "walker-2", "2015-06-01 00:00:02Z"),
              ("insert", "walker-2", "2015-06-01T00:00:01Z"), ("reopen",),
              ("latest", "walker-2"), ("insert", "walker-2", "2015-06-01T00:00:00Z"),
              ("insert", "walker-2", "2015-06-01T00:00:02.000Z"), ("history", "walker-2", 1)])
def test_index_answers_like_the_scan(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "locations.jsonl")
        store = TrackStore(path)
        log: list[FixRecord] = []  # each insert as it is to be stored: ids run 1..n
        try:
            for n, op in enumerate(ops):
                if op[0] == "insert":
                    body = fix(op[1], op[2], latitude=float(n))
                    store.insert(body)
                    log.append(FixRecord(len(log) + 1, **body))
                elif op[0] == "reopen":
                    store.close()
                    store = TrackStore(path)
                else:
                    check_against_reference(store, log, op)
            for device in DEVICES:
                check_against_reference(store, log, ("latest", device))
                for limit in LIMITS:
                    check_against_reference(store, log, ("history", device, limit))
        finally:
            store.close()


# -- a store with no path, against one with a file -------------------------------

# What validate_fix refuses, merged into a valid fix, or a body that is no fix.
REFUSALS = ({"timestamp": "yesterday"}, {"latitude": 91.0}, {"longitude": True},
            {"provider": "wifi"}, {"device_id": 7}, {"speed": 1.5})
valid_bodies = st.builds(fix, devices, st.sampled_from(TIMESTAMPS),
                         st.floats(-90, 90, allow_nan=False))
bodies = st.one_of(
    valid_bodies,
    st.builds(lambda body, bad: {**body, **bad}, valid_bodies, st.sampled_from(REFUSALS)),
    st.builds(lambda body, name: {k: v for k, v in body.items() if k != name},
              valid_bodies, st.sampled_from(FIX_FIELDS)),
    st.sampled_from([None, [], "fix", 3]),
)
memory_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), bodies),
        st.tuples(st.just("insert"), bodies),
        st.tuples(st.just("recent"), queried, st.sampled_from(LIMITS)),
    ),
    min_size=1,
    max_size=40,
)


def insert_outcome(store: TrackStore, body: object) -> tuple:
    try:
        return ("stored", store.insert(body))
    except FixValidationError as exc:
        return ("refused", str(exc), exc.field)


@settings(max_examples=100)
@given(ops=memory_ops)
@example(ops=[("insert", fix("walker-1", "2015-06-01T00:00:01Z")),
              ("insert", {**fix("walker-1", "2015-06-01T00:00:00Z"), "latitude": 91.0}),
              ("recent", "walker-1", 2), ("insert", fix("walker-1", "2015-06-01T00:00:00Z")),
              ("insert", None), ("recent", "walker-1", 2)])
def test_store_without_a_path_answers_like_one_with_a_file(ops):
    """The same inserts, refused ones among them, give the same ids, records,
    refusals and recent() answers in memory as on file; the file holds the
    records stored, and reopened, answers as the memory store does."""
    memory = TrackStore()
    stored = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "locations.jsonl")
        on_file = TrackStore(path)
        try:
            for op in ops:
                if op[0] == "insert":
                    outcome = insert_outcome(memory, op[1])
                    assert outcome == insert_outcome(on_file, op[1])
                    event(outcome[0])
                    if outcome[0] == "stored":
                        stored.append(outcome[1])
                else:
                    assert memory.recent(*op[1:]) == on_file.recent(*op[1:])
            for device in DEVICES:
                for limit in LIMITS:
                    assert memory.recent(device, limit) == on_file.recent(device, limit)
        finally:
            on_file.close()
            memory.close()
        assert stored_records(path) == stored
        reopened = TrackStore(path)
        for device in DEVICES:
            for limit in LIMITS:
                assert reopened.recent(device, limit) == memory.recent(device, limit)
        reopened.close()


# -- load: the line insert writes, against the json.loads pass -------------------


def spelled(record: FixRecord, **texts) -> bytes:
    """The line insert writes for the record, with the JSON text of some fields
    replaced (a name given None is left out, a new name is added)."""
    doc = {name: json.dumps(value) for name, value in record.as_dict().items()}
    doc.update(texts)
    return ("{" + ", ".join(f'"{name}": {text}' for name, text in sorted(doc.items())
                            if text is not None) + "}").encode("utf-8")


# Coordinate spellings other than repr(float): a sign, digits (an integer
# too large for a float, one too long for int()), a fraction and an exponent,
# which make JSON numbers, integer literals and near misses json.loads
# refuses; then the spellings json.loads takes beyond JSON, and other values.
NUMBER_PARTS = (("", "-", "+"), ("0", "1", "22", "01", "", "9" * 400, "1" + "0" * 5000),
                ("", ".", ".5", ".25"), ("", "e", "e5", "E+2", "e-3", "e999"))
OTHER_NUMBERS = ("NaN", "Infinity", "-Infinity", "true", "null", '"1.5"', "0x10", "\uff11.0",
                 "1.0.0")
number_texts = st.one_of(st.tuples(*map(st.sampled_from, NUMBER_PARTS)).map("".join),
                         st.sampled_from(OTHER_NUMBERS))


def id_texts(record_id: int) -> tuple[str, ...]:
    return (f'"{record_id}"', f"{record_id}.0", f"0{record_id}", str(record_id + 1),
            str(record_id - 1), "-1", "true", "null", "9" * 5000)


VARIANT_KINDS = ("none", "compact", "unsorted", "padded", "extra key", "missing key",
                 "bad utf-8", "two objects", "array", "number spelling", "id spelling")
TAIL_KINDS = ("none", "none", "cut line", "whole line", "spaces")

coordinates = st.one_of(
    st.sampled_from((-0.0, 0.0, 90.0, -90.0, 180.0, -180.0, 1e-05, 5e-324, 22.9, 1e16, 1.5e300)),
    st.integers(-180, 180).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Records whose line insert writes is canonical, and records with strings
# json.dumps escapes ('"', '\', non-ASCII, control characters) or that a
# posted fix could not have.
plain_records = st.builds(
    FixRecord, id=st.just(0),
    device_id=st.one_of(st.sampled_from(("walker-1", "", "a b", "x'y{}[]~")), st.text(
        st.characters(min_codepoint=0x20, max_codepoint=0x7e, exclude_characters='"\\'),
        max_size=6)),
    latitude=coordinates, longitude=coordinates, timestamp=st.sampled_from(TIMESTAMPS),
    provider=st.sampled_from(("gps", "network")),
)
odd_records = st.builds(
    FixRecord, id=st.just(0),
    device_id=st.one_of(st.sampled_from(('say "hi"', "back\\slash", "g\u00f6", "tab\there",
                                         "nul\x00", "\x7f", "line\u2028break", "\U0001f600")),
                        st.text(max_size=6)),
    latitude=coordinates, longitude=coordinates,
    timestamp=st.one_of(st.sampled_from(TIMESTAMPS + ["yesterday", ""]), st.text(max_size=4)),
    provider=st.one_of(st.sampled_from(("gps", "network", "carrier-pigeon")), st.text(max_size=4)),
)


@st.composite
def store_files(draw, variant: str) -> tuple[bytes, list[str]]:
    """A store file and the kind of each of its lines: lines as insert writes
    them and blank lines, one line of the variant kind, and a tail.  Ids run
    1..n unless the variant spells its id otherwise, and it differs from the
    line insert writes in that one way only."""
    kinds = draw(st.lists(st.sampled_from(("insert", "insert", "blank")), max_size=5))
    if variant != "none":
        kinds.insert(draw(st.integers(0, len(kinds))), variant)
    lines = []
    for n, kind in enumerate(kinds):
        if kind == "blank":
            lines.append(draw(st.sampled_from((b"", b"  ", b"\t", b"\r"))) + b"\n")
            continue
        written = st.one_of(plain_records, odd_records) if kind == "insert" else plain_records
        record = replace(draw(written), id=sum(k != "blank" for k in kinds[:n + 1]))
        line = json.dumps(record.as_dict(), sort_keys=True).encode("utf-8")
        if kind == "compact":
            line = json.dumps(record.as_dict(), sort_keys=True, separators=(",", ":")).encode()
        elif kind == "unsorted":
            line = json.dumps(record.as_dict()).encode("utf-8")
        elif kind == "padded":
            line = draw(st.sampled_from((b" " + line, b"\t" + line, line + b" ", line + b"\r")))
        elif kind == "number spelling":
            name = draw(st.sampled_from(("latitude", "longitude")))
            line = spelled(record, **{name: draw(number_texts)})
        elif kind == "id spelling":
            line = spelled(record, id=draw(st.sampled_from(id_texts(record.id))))
        elif kind == "extra key":
            line = spelled(record, speed="1.5")
        elif kind == "missing key":
            line = spelled(record, **{draw(st.sampled_from(FIX_FIELDS + ("id",))): None})
        elif kind == "bad utf-8":
            line = line.replace(b'"device_id": "', b'"device_id": "\xff', 1)
        elif kind == "two objects":
            line = line + draw(st.sampled_from((b", ", b"", b" "))) + line
        elif kind == "array":
            line = b"[" + line + b"]"
        lines.append(line + b"\n")
    tail_kind = draw(st.sampled_from(TAIL_KINDS))
    tail = b""
    if tail_kind in ("cut line", "whole line"):
        record = replace(draw(plain_records), id=sum(k != "blank" for k in kinds) + 1)
        tail = json.dumps(record.as_dict(), sort_keys=True).encode("utf-8")
        if tail_kind == "cut line":
            tail = tail[:draw(st.integers(1, len(tail) - 1))]
    elif tail_kind == "spaces":
        tail = b"  "
    return b"".join(lines) + tail, kinds + [f"tail: {tail_kind}"]


def outcome(path, data: bytes, load) -> tuple:
    """What loading a store file of these bytes gives: the error up to its
    detail, or the number of records and, for each device of the reference
    load, what its first recent() answers, or that error up to its detail."""
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        devices = dict.fromkeys(r.device_id for r in reference_store.load(path))
    except StorageError:
        devices = {}
    try:
        count, recent = load(path)
    except StorageError as exc:
        return str(exc).split(" (")[0], None, []
    answers = []
    for device in devices:
        try:
            answers.append([repr(r) for r in recent(device, 10**6)])
        except StorageError as exc:
            answers.append(str(exc).split(" (")[0])
    return "records", count, answers


def load_reference(path: str) -> tuple:
    records = reference_store.load(path)
    return len(records), partial(reference_store.first_query, records, path)


def load_store(path: str) -> tuple:
    """The records a TrackStore loads from path, counted by the id its next
    insert takes, and its recent()."""
    store = TrackStore(path)
    count = store.insert(fix("__next__", TIMESTAMPS[0])).id - 1
    store.close()
    return count, store.recent


@pytest.mark.parametrize("variant", VARIANT_KINDS)
@settings(max_examples=30)
@given(data=st.data())
def test_load_reads_like_the_json_pass(variant, data):
    store_file, kinds = data.draw(store_files(variant))
    for kind in sorted(set(kinds)):
        event(kind)
    if b"\\" in store_file:
        event("escaped string")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "locations.jsonl")
        expected = outcome(path, store_file, load_reference)
        assert outcome(path, store_file, load_store) == expected
    event(f"outcome: {re.sub(r'^.*:[0-9]+: | [0-9]+.*$', '', expected[0])}")


ORDINARY = FixRecord(1, "walker-1", 22.9, 89.5, "2015-06-01T00:00:00Z", "gps")


def test_every_spelling_of_a_number_or_an_id_reads_like_the_json_pass(tmp_path):
    path = tmp_path / "locations.jsonl"
    numbers = [*map("".join, itertools.product(*NUMBER_PARTS)), *OTHER_NUMBERS]
    lines = [spelled(ORDINARY, **{name: text})
             for name in ("latitude", "longitude") for text in numbers]
    lines += [spelled(ORDINARY, id=text) for text in id_texts(ORDINARY.id)]
    lines += [spelled(replace(ORDINARY, device_id=name))
              for name in ('a"b', "a\\b", "a\u00e9b", "a\x00b", "a\x7fb")]
    differ = [line for line in lines
              if outcome(path, line + b"\n", load_store)
              != outcome(path, line + b"\n", load_reference)]
    assert differ == []


ordinary_fixes = st.fixed_dictionaries({
    "device_id": st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                       exclude_characters='"\\'), min_size=1, max_size=12),
    "latitude": st.one_of(st.floats(-90, 90), st.integers(-90, 90)),
    "longitude": st.one_of(st.floats(-180, 180), st.integers(-180, 180)),
    "timestamp": st.sampled_from(TIMESTAMPS),
    "provider": st.sampled_from(("gps", "network")),
})


@settings(max_examples=50)
@given(fixes=st.lists(ordinary_fixes, min_size=1, max_size=4))
def test_every_line_insert_writes_for_an_ordinary_fix_takes_the_fast_path(fixes):
    """A fix validate_fix accepts, with a device id of printable ASCII other
    than a quote or a backslash, reloads without json.loads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "locations.jsonl")
        store = TrackStore(path)
        inserted = [store.insert(validate_fix(f)) for f in fixes]
        store.close()
        with mock.patch.object(server.json, "loads", side_effect=AssertionError("json.loads")):
            reopened = TrackStore(path)
        reopened.close()
    for device in {r.device_id for r in inserted}:
        assert ([repr(r) for r in reopened.recent(device, 10)]
                == [repr(r) for r in reference_store.history(inserted, device, 10)])


# -- load: torn tail, corrupt lines, id gaps ---------------------------------------


def write_store(path, count: int) -> bytes:
    store = TrackStore(path)
    for minute in range(count):
        store.insert(fix("walker-1", f"2015-06-01T00:{minute:02d}:00Z"))
    store.close()
    return path.read_bytes()


@pytest.mark.parametrize("tail", [
    b'{"device_id": "walker-1", "id": 3, "lat',
    b'{"device_id": "walker-1", "id": 3, "latitude": 1.0, "longitude": 2.0, '
    b'"provider": "gps", "timestamp": "2015-06-01T01:00:00Z"}',
    b"  ",
])
def test_torn_last_line_is_truncated_with_a_warning(tmp_path, capsys, tail):
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 2)
    path.write_bytes(whole + tail)

    store = TrackStore(path)
    assert [r.id for r in store.recent("walker-1", 10)] == [1, 2]
    assert path.read_bytes() == whole
    warning = capsys.readouterr().err.splitlines()
    assert len(warning) == 1
    assert str(path) in warning[0] and f"at byte {len(whole)}" in warning[0]

    assert store.insert(fix("walker-1", "2015-06-01T02:00:00Z")).id == 3
    store.close()
    reopened = TrackStore(path)
    assert [r.id for r in reopened.recent("walker-1", 10)] == [1, 2, 3]
    reopened.close()
    assert capsys.readouterr().err == ""


def test_store_that_is_only_a_torn_line_opens_empty(tmp_path, capsys):
    path = tmp_path / "locations.jsonl"
    path.write_bytes(b'{"device_id": "walk')
    store = TrackStore(path)
    assert store.recent("walker-1", 10) == []
    assert store.insert(fix("walker-1", "2015-06-01T00:00:00Z")).id == 1
    store.close()
    assert path.read_bytes().count(b"\n") == 1
    assert "at byte 0" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    b"not json at all",
    b'{"id": 2}',
    b'{"id": 2, "device_id": "\xff"}',
    b'{"device_id": ["walker-1"], "id": 2, "latitude": 1.0, "longitude": 2.0, '
    b'"provider": "gps", "timestamp": "2015-06-01T01:00:00Z"}',
    pytest.param(b'{"device_id": "walker-1", "id": 2, "latitude": ' + b"9" * 400
                 + b', "longitude": 2.0, "provider": "gps", "timestamp": "2015-06-01T01:00:00Z"}',
                 id="latitude too large for a float"),
    *(pytest.param(b'{"device_id": "walker-1", "id": ' + id_text + b', "latitude": 1.0, '
                   b'"longitude": 2.0, "provider": "gps", "timestamp": "2015-06-01T01:00:00Z"}',
                   id=f"id {id_text.decode()}")
      for id_text in (b'"2"', b"true", b"2.0")),
    *(pytest.param(b'{"device_id": "walker-1", "id": 2, "latitude": ' + latitude
                   + b', "longitude": 2.0, "provider": "gps", "timestamp": "2015-06-01T01:00:00Z"}',
                   id=f"latitude {latitude.decode()}")
      for latitude in (b'"1.5"', b"true")),
])
def test_corrupt_whole_line_names_path_and_line(tmp_path, bad):
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 1)
    path.write_bytes(whole + bad + b"\n" + whole)
    with pytest.raises(StorageError, match=re.escape(f"{path}:2: corrupt record")):
        TrackStore(path)
    assert path.read_bytes() == whole + bad + b"\n" + whole


@pytest.mark.parametrize("ids,line", [((1, 3), 2), ((2,), 1), ((1, 1), 2), ((1, 2, 2), 3)])
def test_ids_must_run_one_to_n(tmp_path, ids, line):
    path = tmp_path / "locations.jsonl"
    row = write_store(path, 1).decode()
    path.write_text("".join(row.replace('"id": 1', f'"id": {i}') for i in ids))
    with pytest.raises(StorageError, match=re.escape(f"{path}:{line}: expected id {line}, found")):
        TrackStore(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 2)
    first, second = whole.splitlines(keepends=True)
    path.write_bytes(b"\n" + first + b"  \n" + second)
    store = TrackStore(path)
    assert [r.id for r in store.recent("walker-1", 10)] == [1, 2]
    store.close()


def test_insert_into_a_sorted_device_parses_one_timestamp(tmp_path, monkeypatch):
    path = tmp_path / "locations.jsonl"
    store = TrackStore(path)
    store.insert(fix("walker-1", "2015-06-01T00:00:00Z"))
    assert store.recent("walker-1", 1)[0].id == 1  # sorts the device
    calls = []
    real = TrackStore._sort_key

    def counted(self, record):
        calls.append(record.id)
        return real(self, record)

    monkeypatch.setattr(TrackStore, "_sort_key", counted)
    for n in range(100):
        store.insert(fix("walker-1", f"2015-06-01T01:{n // 60:02d}:{n % 60:02d}Z"))
    assert calls == list(range(2, 102))
    monkeypatch.undo()
    records = stored_records(path)
    assert store.recent("walker-1", 1000) == reference_store.history(records, "walker-1", 1000)
    store.close()


def test_insert_into_a_sorted_device_reads_the_fix_once(tmp_path, monkeypatch):
    """validate_fix reads the posted fix; neither its sort key nor the bisect
    among the device's records reads it, or any stored record, again."""
    path = tmp_path / "locations.jsonl"
    store = TrackStore(path)
    for n in range(20):
        store.insert(fix("walker-1", f"2015-06-01T00:{n:02d}:30Z"))
    assert store.recent("walker-1", 1)[0].id == 20  # sorts the device
    calls = []
    real = server.read_json
    monkeypatch.setattr(server, "read_json", lambda *args: calls.append(args) or real(*args))
    store.insert(fix("walker-1", "2015-06-01T01:00:00Z"))  # in order
    assert len(calls) == 1
    store.insert(fix("walker-1", "2015-06-01T00:10:00Z"))  # out of order, among 21
    assert len(calls) == 2
    monkeypatch.undo()
    records = stored_records(path)
    assert store.recent("walker-1", 1000) == reference_store.history(records, "walker-1", 1000)
    store.close()


# -- memory ----------------------------------------------------------------------


def loaded_and_queried(path, devices: list[str]) -> tuple[list[FixRecord], TrackStore, int, int]:
    """Write 20,000 fixes as insert writes them, spread over `devices`, one
    in 50 an hour older than the one before; load them and query each
    device once.  The records, the store, and the bytes a fix it holds
    then and at the peak, under tracemalloc."""
    records = [FixRecord(n, devices[n % len(devices)], round(22.9 + n % 997 * 1e-5, 6),
                         round(89.5 - n % 991 * 1e-5, 6),
                         at_second(75 * n - (3600 if n % 50 == 0 else 0)),
                         "network" if n % 7 == 0 else "gps")
                 for n in range(1, 20_001)]
    path.write_text("".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in records))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = TrackStore(path)
        for device in devices:
            store.recent(device, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (records, store, (held - before) // len(records), (peak - before) // len(records))


def test_a_loaded_store_holds_at_most_80_bytes_a_fix(tmp_path):
    """20,000 fixes as insert writes them, over 4 devices, some out of order,
    take at most 80 bytes each once loaded and each device queried (a
    record object and its fields alone take about 240).  Fixes the columns
    cannot hold (fractional seconds, another spelling of an instant) and
    out-of-order inserts into one device then leave every answer, and the
    reopened store's, as the scan gives it."""
    path = tmp_path / "locations.jsonl"
    devices = [f"walker-{d}" for d in range(1, 5)]
    records, store, held, _ = loaded_and_queried(path, devices)
    try:
        assert held <= 80
        # Fractional seconds, a tie with a stored fix spelt with a space,
        # the newest, and two older than most.
        later = ["2015-06-01T00:00:00.250Z", at_second(75 * 101).replace("T", " "),
                 at_second(75 * 20_000), "2015-06-01T10:00:00.000001Z", at_second(3_000),
                 at_second(0)]
        for n, timestamp in enumerate(later):
            body = fix("walker-2", timestamp, latitude=float(n))
            records.append(store.insert(body))
            assert records[-1] == FixRecord(len(records), **body)
        store.close()
        reopened = TrackStore(path)
        for device in devices:
            for limit in (1, 3, 50, len(records)):
                expected = reference_store.history(records, device, limit)
                assert store.recent(device, limit) == expected
                assert reopened.recent(device, limit) == expected
        reopened.close()
    finally:
        store.close()


def test_one_device_s_first_query_peaks_at_most_180_bytes_a_fix(tmp_path):
    """A store whose 20,000 fixes are all one device's, as a lone walker's
    are, peaks at most 180 bytes a fix from its load through the device's
    first query, which checks and sorts every fix (about 350 when each fix
    was a record object), and holds at most 80 after it."""
    records, store, held, peak = loaded_and_queried(tmp_path / "locations.jsonl", ["walker-1"])
    store.close()
    assert held <= 80
    assert peak <= 180
    assert store.recent("walker-1", 3) == reference_store.history(records, "walker-1", 3)


# -- failed appends -------------------------------------------------------------


class PartialWrite:
    """A store file whose write puts the first `keep` bytes down, then fails."""

    def __init__(self, fh, keep: int) -> None:
        self._fh = fh
        self._keep = keep

    def write(self, data) -> int:
        self._fh.write(bytes(data[:self._keep]))
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_failed_write_is_truncated_and_leaves_the_index_alone(tmp_path):
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 3)
    store = TrackStore(path)
    before = (store.recent("walker-1", 1), store.recent("walker-1", 50))  # all its 3 records

    real = store._fh
    store._fh = PartialWrite(real, keep=10)
    with pytest.raises(StorageError, match="No space left"):
        store.insert(fix("walker-1", "2015-06-01T00:00:30Z"))
    assert path.read_bytes() == whole
    assert (store.recent("walker-1", 1), store.recent("walker-1", 50)) == before

    store._fh = real
    assert store.insert(fix("walker-1", "2015-06-01T00:00:30Z")).id == 4
    store.close()
    assert [r.id for r in stored_records(path)] == [1, 2, 3, 4]
    reopened = TrackStore(path)
    assert [r.id for r in reopened.recent("walker-1", 50)] == [1, 4, 2, 3]
    reopened.close()


def test_failed_fsync_is_truncated(tmp_path, monkeypatch):
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 1)
    store = TrackStore(path)
    real_fsync = os.fsync
    calls = []

    def fail_once(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(5, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fail_once)
    with pytest.raises(StorageError, match="Input/output error"):
        store.insert(fix("walker-1", "2015-06-01T00:05:00Z"))
    assert path.read_bytes() == whole
    assert [r.id for r in store.recent("walker-1", 10)] == [1]
    assert store.insert(fix("walker-1", "2015-06-01T00:05:00Z")).id == 2
    store.close()


def test_insert_after_close_is_a_storage_error(tmp_path):
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 1)
    store = TrackStore(path)
    store.close()
    with pytest.raises(StorageError):
        store.insert(fix("walker-1", "2015-06-01T00:05:00Z"))
    assert path.read_bytes() == whole
    assert [r.id for r in store.recent("walker-1", 10)] == [1]


@pytest.mark.parametrize("bad", [{"timestamp": "yesterday"}, {"latitude": 91.0}],
                         ids=["bad timestamp", "latitude 91"])
@pytest.mark.parametrize("queried", [True, False], ids=["queried device", "unqueried device"])
def test_refused_insert_leaves_the_store_alone(tmp_path, bad, queried):
    """insert checks the fix as validate_fix does before it writes: a refused
    one is not in the file, the records or the index, and takes no id."""
    path = tmp_path / "locations.jsonl"
    whole = write_store(path, 2)
    store = TrackStore(path)
    if queried:
        assert store.recent("walker-1", 1)[0].id == 2  # sorts the device
    with pytest.raises(FixValidationError) as excinfo:
        store.insert({**fix("walker-1", "2015-06-01T00:05:00Z"), **bad})
    assert excinfo.value.field == next(iter(bad))
    assert path.read_bytes() == whole
    assert store.recent("walker-1", 10) == stored_records(path)

    assert store.insert(fix("walker-1", "2015-06-01T00:05:00Z")).id == 3
    store.close()
    records = stored_records(path)
    assert [r.id for r in records] == [1, 2, 3]
    reopened = TrackStore(path)
    assert reopened.recent("walker-1", 1) == [reference_store.latest_fix(records, "walker-1")]
    for limit in LIMITS:
        assert (reopened.recent("walker-1", limit)
                == reference_store.history(records, "walker-1", limit))
    reopened.close()


# -- concurrency ----------------------------------------------------------------


def test_concurrent_inserts_and_queries_keep_the_index_sorted(tmp_path):
    path = tmp_path / "locations.jsonl"
    store = TrackStore(path)
    store.insert(fix("walker-1", "2015-06-01T00:30:00Z"))
    unsorted: list[list[int]] = []

    def insert(worker: int) -> None:
        for n in range(40):
            minute = (worker * 17 + n * 7) % 60  # out of order, with repeats
            store.insert(fix("walker-1", f"2015-06-01T00:{minute:02d}:00Z"))

    def query() -> None:
        for _ in range(40):
            keys = [reference_store._sort_key(r) for r in store.recent("walker-1", 1000)]
            if keys != sorted(keys):
                unsorted.append([r.id for r in store.recent("walker-1", 1000)])

    threads = ([threading.Thread(target=insert, args=(w,)) for w in range(4)]
               + [threading.Thread(target=query) for _ in range(4)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert unsorted == []
    records = stored_records(path)
    assert [r.id for r in records] == list(range(1, 162))
    assert store.recent("walker-1", 1000) == reference_store.history(records, "walker-1", 1000)
    store.close()
