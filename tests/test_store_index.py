"""Tracking store: the per-device index against the original scan
(reference_store.py), and the store's crash safety on load and on a
failed append.

The differential test interleaves inserts, latest/history queries and
reopens of the store from disk.  Its timestamps repeat instants in more
than one valid spelling ('...:00Z', '...:00.000Z', '...:00.5Z', a space
for the 'T'), so equal instants fall back to the id and text order is not
time order.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_store
from echoguide.server import StorageError, TrackService, TrackStore, parse_record_timestamp

DEVICES = ("walker-1", "walker-2", "walker-3")
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


def check_against_reference(service: TrackService, op: tuple) -> None:
    records = service.store.records()
    if op[0] == "latest":
        assert service.latest_fix(op[1]) == reference_store.latest_fix(records, op[1])
    else:
        assert service.history(op[1], op[2]) == reference_store.history(records, *op[1:])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
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
        try:
            for n, op in enumerate(ops):
                if op[0] == "insert":
                    store.insert(fix(op[1], op[2], latitude=float(n)))
                elif op[0] == "reopen":
                    store.close()
                    store = TrackStore(path)
                else:
                    check_against_reference(TrackService(store), op)
            service = TrackService(store)
            for device in DEVICES:
                check_against_reference(service, ("latest", device))
                for limit in LIMITS:
                    check_against_reference(service, ("history", device, limit))
        finally:
            store.close()


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
    assert [r.id for r in store.records()] == [1, 2]
    assert path.read_bytes() == whole
    warning = capsys.readouterr().err.splitlines()
    assert len(warning) == 1
    assert str(path) in warning[0] and f"at byte {len(whole)}" in warning[0]

    assert store.insert(fix("walker-1", "2015-06-01T02:00:00Z")).id == 3
    store.close()
    reopened = TrackStore(path)
    assert [r.id for r in reopened.records()] == [1, 2, 3]
    reopened.close()
    assert capsys.readouterr().err == ""


def test_store_that_is_only_a_torn_line_opens_empty(tmp_path, capsys):
    path = tmp_path / "locations.jsonl"
    path.write_bytes(b'{"device_id": "walk')
    store = TrackStore(path)
    assert store.records() == []
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
    assert [r.id for r in store.records()] == [1, 2]
    store.close()


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
    service = TrackService(store)
    before = (store.records(), service.latest_fix("walker-1"), service.history("walker-1", 50))

    real = store._fh
    store._fh = PartialWrite(real, keep=10)
    with pytest.raises(StorageError, match="No space left"):
        store.insert(fix("walker-1", "2015-06-01T00:00:30Z"))
    assert path.read_bytes() == whole
    assert (store.records(), service.latest_fix("walker-1"),
            service.history("walker-1", 50)) == before

    store._fh = real
    assert store.insert(fix("walker-1", "2015-06-01T00:00:30Z")).id == 4
    store.close()
    reopened = TrackStore(path)
    assert [r.id for r in reopened.records()] == [1, 2, 3, 4]
    assert [r.id for r in TrackService(reopened).history("walker-1", 50)] == [1, 4, 2, 3]
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
    assert [r.id for r in store.records()] == [1]
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
    assert [r.id for r in store.records()] == [1]


# -- concurrency ----------------------------------------------------------------


def test_concurrent_inserts_and_queries_keep_the_index_sorted(tmp_path):
    store = TrackStore(tmp_path / "locations.jsonl")
    service = TrackService(store)
    store.insert(fix("walker-1", "2015-06-01T00:30:00Z"))
    unsorted: list[list[int]] = []

    def insert(worker: int) -> None:
        for n in range(40):
            minute = (worker * 17 + n * 7) % 60  # out of order, with repeats
            store.insert(fix("walker-1", f"2015-06-01T00:{minute:02d}:00Z"))

    def query() -> None:
        for _ in range(40):
            keys = [reference_store._sort_key(r) for r in service.history("walker-1", 1000)]
            if keys != sorted(keys):
                unsorted.append([r.id for r in service.history("walker-1", 1000)])

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
    records = store.records()
    assert [r.id for r in records] == list(range(1, 162))
    assert service.history("walker-1", 1000) == reference_store.history(records, "walker-1", 1000)
    store.close()
