"""TraceLog.to_jsonl against json.dumps: one line per event, byte for byte,
with json's C encoder, with the pure-Python encoder json falls back to, and
on the lines it writes directly from the hot kinds' rows."""

from __future__ import annotations

import errno
import hashlib
import inspect
import json
import json.encoder
import math
import os
import re
import stat
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from enum import Enum
from operator import itemgetter
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, SCENARIO_DIR
from echoguide import trace
from echoguide.cli import _summarize
from echoguide.errors import ScenarioError
from echoguide.harness import distance_error_experiment, run_scenario
from echoguide.trace import (
    TraceLog,
    ev_button,
    row_alert,
    row_measurement,
    row_no_echo,
)
from echoguide.world import Channel, SurfaceKind, Weather, load_scenario, scenario_from_dict

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import inputs  # noqa: E402

HOT_KINDS = {"no_echo", "measurement", "alert"}

EVENTS = [
    {"t": 0, "kind": "speak", "message": "Ground", "language": "bn",
     "text": "সাবধান, সামনে নিচে বাধা"},
    {"t": 1, "kind": "utterance", "text": 'quote " backslash \\ slash /'},
    {"t": 2, "kind": "frame", "data": "\x00\x01\x08\t\n\r\x1f\x7f  \ud800"},
    {"t": 3, "kind": "x", "none": None, "yes": True, "no": False},
    {"t": 4, "kind": "x", "floats": [0.1, 1e-7, 1e16, -0.0, 2.5e-308, 1.7976931348623157e308]},
    {"t": 5, "kind": "x", "ints": [0, -1, 2**53 + 1, 2**64, -(2**70), 10**40]},
    {"t": 6, "kind": "x", "non_finite": [float("inf"), float("-inf"), float("nan")]},
    {"t": 7, "kind": "x", "nested": {"b": [1, {"d": 2, "c": None}], "a": {}, "é": []},
     "int_keys": {10: "ten", 2: "two"}},
    {"t": 8, "kind": "x", "tuple": (1, "two"), "z": "last key", "A": "first key"},
]


def dumps(event: dict) -> str:
    return json.dumps(event, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def expected_lines(events) -> str:
    return "".join(dumps(event) + "\n" for event in events)


def c_encoder_off(monkeypatch) -> None:
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)


ENCODERS = pytest.mark.parametrize("switch", [lambda mp: None, c_encoder_off],
                                   ids=["C encoder", "pure-Python fallback"])


@ENCODERS
def test_to_jsonl_is_json_dumps_line_by_line(monkeypatch, switch):
    switch(monkeypatch)
    assert TraceLog(EVENTS).to_jsonl() == expected_lines(EVENTS)
    for event in EVENTS:
        assert TraceLog([event]).to_jsonl() == dumps(event) + "\n"


@ENCODERS
def test_circular_event_still_raises(monkeypatch, switch):
    switch(monkeypatch)
    loop: dict = {"t": 0, "kind": "x"}
    loop["self"] = [loop]
    with pytest.raises(ValueError, match="ircular"):
        TraceLog([EVENTS[0], loop]).to_jsonl()
    # One trace's markers do not carry over to the next.
    assert TraceLog(EVENTS).to_jsonl() == expected_lines(EVENTS)


@ENCODERS
def test_unencodable_value_raises_type_error(monkeypatch, switch):
    switch(monkeypatch)
    with pytest.raises(TypeError):
        TraceLog([{"t": 0, "kind": "x", "data": b"bytes"}]).to_jsonl()


@ENCODERS
def test_shared_values_are_not_circular(monkeypatch, switch):
    switch(monkeypatch)
    shared = {"channel": "ground"}
    events = [{"t": i, "kind": "x", "a": shared, "b": [shared, shared]} for i in range(3)]
    assert TraceLog(events).to_jsonl() == expected_lines(events)


def test_pure_python_encoder_gives_the_pinned_bytes(monkeypatch):
    pins = json.loads((REPO_ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    c_encoder_off(monkeypatch)
    assert sorted(pins["bundled"]) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
    for name, digest in pins["bundled"].items():
        walk = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        assert hashlib.sha256(walk.to_jsonl().encode("utf-8")).hexdigest() == digest, name
    experiment = distance_error_experiment()
    assert hashlib.sha256(experiment.to_jsonl().encode("utf-8")).hexdigest() == \
        pins["experiment"]["trace"]


def test_empty_trace_is_empty_text():
    assert TraceLog().to_jsonl() == ""


# -- writing a trace file, a chunk at a time ----------------------------------

CHUNK = trace._CHUNK
# The events whose lines UTF-8 can encode: all but the frame with a lone surrogate.
WRITABLE = [event for event in EVENTS if event["kind"] != "frame"]
OLD = [{"t": 0, "kind": "speak", "text": "সাবধান"}]


def chunked_trace(size: int) -> TraceLog:
    """A trace of `size` events that cycles through the three row kinds and
    dict events.  The ground channel's measurements from the third-last line
    of the first chunk to the third line of the second share one true_cm
    object, as a segment's do, so its text is cached across the boundary."""
    channels, surfaces, weathers = list(Channel), list(SurfaceKind), list(Weather)
    straddle = 123.25
    log = TraceLog()
    for i in range(size):
        channel = channels[i % 3]
        if CHUNK - 3 <= i <= CHUNK + 2:
            log.add(row_measurement(i, Channel.GROUND, 123, straddle, SurfaceKind.TILES,
                                    Weather.DRY))
        elif i % 4 == 0:
            log.add(row_no_echo(i, channel))
        elif i % 4 == 1:
            log.add(row_measurement(i, channel, i % 700, (None, i % 700, i / 7)[i % 3],
                                    surfaces[i % 2], weathers[i // 2 % 2]))
        elif i % 4 == 2:
            log.add(row_alert(i, channel, i % 100))
        else:
            log.add(ev_button(i) if i % 8 == 3 else {"t": i, "kind": "speak", "text": "সাবধান"})
    return log


@contextmanager
def spied_writes(fail_at: Optional[int] = None):
    """Patch the open that trace.py calls, so that every file it opens
    records the bytes of each write in the list this yields; with fail_at,
    that write raises ENOSPC instead, as a full disk does."""
    writes: list[bytes] = []

    class Spy:
        def __init__(self, fh) -> None:
            self.fh = fh

        def write(self, data: bytes) -> int:
            if len(writes) == fail_at:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            writes.append(bytes(data))
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            self.fh.close()

    with mock.patch.object(trace, "open", lambda *args: Spy(open(*args)), create=True):
        yield writes


@ENCODERS
@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_a_trace_is_written_line_by_line_across_chunks(tmp_path, monkeypatch, switch, size):
    switch(monkeypatch)
    log, path = chunked_trace(size), tmp_path / "trace.jsonl"
    chunks = list(log._chunks())
    text = log.to_jsonl()
    log.write(path)
    assert len(chunks) == math.ceil(size / CHUNK)
    assert all(chunk.endswith("\n") and chunk.count("\n") <= CHUNK for chunk in chunks)
    assert "".join(chunks) == text == expected_lines(log.events)
    assert path.read_bytes() == text.encode("utf-8")


def test_write_streams_a_dense_walk_a_chunk_at_a_time(tmp_path):
    walk = run_scenario(scenario_from_dict(inputs.dense_course(1)))
    path = tmp_path / "walk.jsonl"
    with spied_writes() as writes:
        walk.write(path)
    assert len(writes) >= math.ceil(len(walk) / CHUNK) > 1
    assert all(data.endswith(b"\n") and data.count(b"\n") <= CHUNK for data in writes)
    assert b"".join(writes) == path.read_bytes() == walk.to_jsonl().encode("utf-8")


@pytest.mark.parametrize("value, error", [(b"bytes", TypeError), ("\ud800", UnicodeEncodeError)],
                         ids=["bytes", "lone surrogate"])
def test_write_that_cannot_serialize_leaves_the_old_file(tmp_path, value, error):
    # The bad event is in the second chunk, after the first has been written.
    path = tmp_path / "trace.jsonl"
    TraceLog(OLD).write(path)
    filler = [{"t": 1, "kind": "x"}] * CHUNK
    with spied_writes() as writes, pytest.raises(error):
        TraceLog([*OLD, *filler, {"t": 2, "kind": "x", "data": value}]).write(path)
    assert len(writes) == 1
    assert path.read_text(encoding="utf-8") == expected_lines(OLD)
    assert os.listdir(tmp_path) == ["trace.jsonl"]


def full_disk(monkeypatch):
    return spied_writes(fail_at=1)


def refused_replace(monkeypatch):
    def replace(src, dst):
        raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, None, dst)
    monkeypatch.setattr(os, "replace", replace)
    return nullcontext()


@pytest.mark.parametrize("fault, strerror", [(full_disk, os.strerror(errno.ENOSPC)),
                                             (refused_replace, os.strerror(errno.EBUSY))],
                         ids=["disk full", "replace refused"])
def test_write_that_fails_names_the_path_and_leaves_the_old_file(tmp_path, monkeypatch, fault,
                                                                 strerror):
    path = tmp_path / "trace.jsonl"
    TraceLog(OLD).write(path)
    with fault(monkeypatch), pytest.raises(OSError) as raised:
        TraceLog([*OLD, *[{"t": 1, "kind": "x"}] * (2 * CHUNK)]).write(path)
    assert (raised.value.filename, raised.value.filename2, raised.value.strerror) == \
        (path, None, strerror)
    assert path.read_text(encoding="utf-8") == expected_lines(OLD)
    assert os.listdir(tmp_path) == ["trace.jsonl"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=lambda umask: f"{umask:03o}")
def test_a_new_file_gets_the_mode_open_gives_it(tmp_path, umask):
    old_umask = os.umask(umask)
    try:
        TraceLog(OLD).write(tmp_path / "trace.jsonl")
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(os.stat(tmp_path / "trace.jsonl").st_mode) == 0o666 & ~umask


def test_an_old_file_keeps_its_mode(tmp_path):
    path = tmp_path / "trace.jsonl"
    TraceLog(OLD).write(path)
    os.chmod(path, 0o640)
    TraceLog(WRITABLE).write(path)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert path.read_text(encoding="utf-8") == expected_lines(WRITABLE)


def test_through_a_symlink_the_file_it_points_to_is_written(tmp_path):
    # One link to an old file and one to a file not there yet, as open follows them.
    (tmp_path / "sub").mkdir()
    TraceLog(OLD).write(tmp_path / "sub" / "old.jsonl")
    for name in ("old", "new"):
        link = tmp_path / f"{name}-link.jsonl"
        link.symlink_to(f"sub/{name}.jsonl")
        TraceLog(WRITABLE).write(link)
        assert os.readlink(link) == f"sub/{name}.jsonl"
        assert link.read_text(encoding="utf-8") == expected_lines(WRITABLE)
    assert sorted(os.listdir(tmp_path / "sub")) == ["new.jsonl", "old.jsonl"]
    assert sorted(os.listdir(tmp_path)) == ["new-link.jsonl", "old-link.jsonl", "sub"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_is_written_into_directly(tmp_path):
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the trace fits the pipe's buffer
    try:
        TraceLog(WRITABLE).write(fifo)
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data == expected_lines(WRITABLE).encode("utf-8")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["trace.fifo"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("in_directory", [True, False], ids=["in a directory", "deleted"])
def test_an_open_file_named_under_proc_is_written_into_directly(tmp_path, in_directory):
    # As through /dev/stdout, a link to /proc/self/fd/1: the open file is
    # written, not replaced by a new file of its name.
    path = tmp_path / "open.jsonl"
    with open(path, "w+b") as fh:
        fh.write(b"old\n")
        fh.flush()
        if not in_directory:
            os.unlink(path)
        TraceLog(WRITABLE).write(f"/proc/self/fd/{fh.fileno()}")
        fh.seek(0)
        assert fh.read() == expected_lines(WRITABLE).encode("utf-8")
    assert os.listdir(tmp_path) == (["open.jsonl"] if in_directory else [])


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("mode", ["wb", "ab"], ids=[">", ">>"])
def test_a_trace_to_dev_stdout_comes_before_the_lines_printed_after_it(tmp_path, mode):
    """`run --trace /dev/stdout` with standard output a file opened as `>`
    or `>>` opens: the file holds the pinned trace, then the CLI's lines,
    after what it held for `>>`."""
    scenario = SCENARIO_DIR / "ground_obstacle.json"
    out = tmp_path / "out.txt"
    out.write_bytes(b"held before\n")
    kept = b"held before\n" if mode == "ab" else b""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    with open(out, mode) as stdout:
        subprocess.run([sys.executable, "-m", "echoguide.cli", "run", "--scenario", str(scenario),
                        "--trace", "/dev/stdout"], stdout=stdout, env=env, check=True, timeout=120)
    data = out.read_bytes()
    pinned = json.loads((REPO_ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    walk = run_scenario(load_scenario(scenario))
    text = walk.to_jsonl().encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == pinned["bundled"]["ground_obstacle"]
    assert data == (kept + text + b"trace written to /dev/stdout\n"
                    + _summarize(walk).encode("utf-8") + b"\n")


# -- reading a trace file --------------------------------------------------------


GOOD_LINE = b'{"t":0,"kind":"x"}\n'


@pytest.mark.parametrize("line", [
    b"\xff\xfe{}\n", b"not json\n", b"[1]\n", b'{"kind":"x"}\n', b'{"t":1}\n',
    b'{"t":1,"kind":"x"} {}\n', b"\xef\xbb\xbf\n", b'\xef\xbb\xbf\xef\xbb\xbf{"t":1,"kind":"x"}\n',
    '{"t":1,"kind":"x"}\n'.encode("utf-16-be"),
], ids=["not UTF-8", "not JSON", "not an object", "no t", "no kind", "extra data",
        "a BOM alone", "two BOMs", "UTF-16"])
def test_a_bad_line_is_named_by_path_and_lineno(tmp_path, line):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(GOOD_LINE + b"  \n" + line + GOOD_LINE)
    with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}:3: not a trace event$"):
        TraceLog.read(path)


@pytest.mark.parametrize("lines", [
    [b'\xef\xbb\xbf{"t":1,"kind":"x"}\n', b'\xef\xbb\xbf {"t":2,"kind":"y"}\r\n'],
    [b' {"t":1, "kind":"\xe0\xa6\xb8", "a": [1.5, null, "\\u09b8"]} \n', b"\t\n", b"\x0b\n"],
    [b'{"t":1,"kind":"\xed\xa0\x80"}\n', b'{"t":2,"kind":"\\ud800"}'],
], ids=["BOMs", "whitespace and escapes", "surrogates"])
def test_lines_are_read_as_json_loads_reads_their_bytes(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"".join(lines))
    assert TraceLog.read(path).events == [json.loads(line) for line in lines if line.strip()]


@pytest.mark.parametrize("name", ["ground_obstacle", "walk_20min"])
def test_a_bom_led_trace_reads_to_the_same_events(tmp_path, name):
    path, bom_led = tmp_path / "trace.jsonl", tmp_path / "bom.jsonl"
    run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json")).write(path)
    bom_led.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    events = TraceLog.read(path).events
    assert TraceLog.read(bom_led).events == events
    assert TraceLog(events).to_jsonl().encode("utf-8") == path.read_bytes()


# -- the hot kinds: measurement, alert and no_echo -------------------------------


class OddStr(str):
    """Encodes as its text, but formats as something else."""

    def __str__(self) -> str:
        return "odd"


class LyingStr(str):
    """Encodes as its text, but claims to equal anything."""

    def __eq__(self, other: object) -> bool:
        return True

    __hash__ = str.__hash__


class OddInt(int):
    def __str__(self) -> str:
        return "odd"

    __repr__ = __str__


def as_dict(row: tuple) -> dict:
    """The dict TraceLog.events gives for a row."""
    log = TraceLog()
    log.add(row)
    return log.events[0]


MEASUREMENT = as_dict(row_measurement(0, Channel.GROUND, 51, 50.0, SurfaceKind.TILES, Weather.DRY))
ALERT = as_dict(row_alert(30, Channel.GROUND, 40))
NO_ECHO = as_dict(row_no_echo(40, Channel.RIGHT))


# (label, a function that makes its trace): the five bundled walks, the
# accuracy experiment and dense_course(1).
WALKS = [
    *[(path.stem, lambda path=path: run_scenario(load_scenario(path)))
      for path in sorted(SCENARIO_DIR.glob("*.json"))],
    ("experiment", distance_error_experiment),
    ("dense_course(1)", lambda: run_scenario(scenario_from_dict(inputs.dense_course(1)))),
]


def test_pristine_hot_events_do_not_reach_the_encoder():
    """A walk's no_echo, measurement and alert events are rows, whose lines
    are written without the encoder; it writes every other event once."""
    encoded: Counter = Counter()
    encoder = trace._encoder

    def spy():
        encode = encoder()

        def counted(event):
            encoded[event["kind"]] += 1
            return encode(event)
        return counted

    for label, make in WALKS:
        walk = make()
        encoded.clear()
        with mock.patch.object(trace, "_encoder", spy):
            text = walk.to_jsonl()
        kinds = Counter(event["kind"] for event in walk.events)
        assert encoded == Counter({k: n for k, n in kinds.items() if k not in HOT_KINDS}), label
        assert kinds.keys() & HOT_KINDS, label
        assert text == expected_lines(walk.events), label


@pytest.mark.parametrize("make", [make for _, make in WALKS], ids=[label for label, _ in WALKS])
def test_a_walks_lines_are_the_same_before_and_after_its_events_are_read(make):
    walk = make()
    before = walk.to_jsonl()
    assert walk.to_jsonl() == before
    assert before == expected_lines(walk.events)
    assert walk.to_jsonl() == before


@pytest.mark.parametrize("make", [make for _, make in WALKS], ids=[label for label, _ in WALKS])
def test_kinds_are_counted_and_the_summary_written_without_a_rows_dict(make):
    # kind_counts, kind() of a kind no row has, and so the run summary, read
    # the rows as they are; the summary is the one counted over the dicts.
    walk = make()
    made = Counter()
    as_dict = {k: (lambda row, f=f: made.update([row[1]]) or f(row))
               for k, f in trace._AS_DICT.items()}
    with mock.patch.dict(trace._AS_DICT, as_dict):
        counts, summary = walk.kind_counts(), _summarize(walk)
        uploads = walk.kind("upload")
    assert not made
    events = walk.events
    assert counts == Counter(event["kind"] for event in events)
    assert uploads == [event for event in events if event["kind"] == "upload"]
    by_dict = Counter(e["outcome"] if e["kind"] == "upload" else e["kind"] for e in events)
    assert summary == (
        f"{len(events)} events, {by_dict['measurement']} measurements, "
        f"{by_dict['alert']} alerts, {by_dict['speak']} announcements, "
        f"{by_dict['delivered']}/{by_dict['delivered'] + by_dict['queued']} uploads delivered, "
        f"{by_dict['call']} calls")


def test_kind_gives_dicts_in_order_for_row_kinds_and_others():
    log = TraceLog()
    for event in (row_no_echo(1, Channel.LEFT), ev_button(2), row_no_echo(3, Channel.RIGHT),
                  {"t": 4, "kind": "upload", "outcome": "queued"}, ev_button(5)):
        log.add(event)
    assert log.kind("button") == [ev_button(2), ev_button(5)]
    assert log.kind("upload") == [{"t": 4, "kind": "upload", "outcome": "queued"}]
    assert log.kind("no_echo") == [as_dict(row_no_echo(1, Channel.LEFT)),
                                   as_dict(row_no_echo(3, Channel.RIGHT))]
    assert log.kind("nothing") == []
    assert log.kind_counts() == Counter({"no_echo": 2, "button": 2, "upload": 1})


def test_equal_times_keep_insertion_order_across_rows_and_dicts():
    pairs = [
        (row_no_echo(5, Channel.LEFT), {"t": 5, "kind": "no_echo", "channel": "left"}),
        (ev_button(5), ev_button(5)),
        (row_alert(3, Channel.GROUND, 40),
         {"t": 3, "kind": "alert", "channel": "ground", "distance_cm": 40}),
        (row_measurement(5, Channel.RIGHT, 80, 79.5, SurfaceKind.TILES, Weather.WET),
         {"t": 5, "kind": "measurement", "channel": "right", "measured_cm": 80, "true_cm": 79.5,
          "surface": "tiles", "weather": "wet"}),
        ({"t": 3, "kind": "x"}, {"t": 3, "kind": "x"}),
        (row_no_echo(3, Channel.GROUND), {"t": 3, "kind": "no_echo", "channel": "ground"}),
        (ev_button(1), ev_button(1)),
        (row_no_echo(5, Channel.GROUND), {"t": 5, "kind": "no_echo", "channel": "ground"}),
    ]
    log = TraceLog()
    for event, _ in pairs:
        log.add(event)
    log.sort_by_time()
    expected = sorted((as_dict for _, as_dict in pairs), key=itemgetter("t"))
    assert log.to_jsonl() == expected_lines(expected)
    assert log.events == expected


def test_a_change_to_a_read_event_is_in_its_line():
    log = TraceLog()
    log.add(row_no_echo(5, Channel.LEFT))
    log.add(row_measurement(6, Channel.GROUND, 51, 50.0, SurfaceKind.TILES, Weather.DRY))
    log.add(row_alert(6, Channel.GROUND, 51))
    log.events[0]["channel"] = "right"
    log.events[1]["true_cm"] = float("nan")
    del log.events[2]["distance_cm"]
    assert log.to_jsonl() == (
        '{"channel":"right","kind":"no_echo","t":5}\n'
        '{"channel":"ground","kind":"measurement","measured_cm":51,"surface":"tiles","t":6,'
        '"true_cm":NaN,"weather":"dry"}\n'
        '{"channel":"ground","kind":"alert","t":6}\n')
    # A row added after the first read is read as its dict too.
    log.add(row_no_echo(7, Channel.RIGHT))
    assert log.events[3] == {"t": 7, "kind": "no_echo", "channel": "right"}


# Values of each row_* argument of the types a row holds, as the simulator
# gives them, and values of other types, which the row_* functions refuse.
RIGHT = {
    "t": st.integers(0, 10**7),
    "cm": st.integers(-5, 10**6),
    "true_cm": st.one_of(st.none(), st.integers(0, 700),
                         st.floats(allow_nan=False, allow_infinity=False)),
    "channel": st.sampled_from(Channel),
    "surface": st.sampled_from(SurfaceKind),
    "weather": st.sampled_from(Weather),
}
WRONG = {
    "t": [True, 3.0, OddInt(4)],
    "cm": [False, 50.0, OddInt(5)],
    "true_cm": [float("nan"), float("inf"), float("-inf"), True, OddInt(7)],
    "channel": ["ground", 'gro"und', "\\", OddStr("left"), None, Weather.DRY],
    "surface": ["tiles", "grass", OddStr("tiles")],
    "weather": ["dry", "é", SurfaceKind.TILES],
}
# Each kind's row_* function and the RIGHT and WRONG key of each of its arguments.
MAKERS = {
    "measurement": (row_measurement, ("t", "channel", "cm", "true_cm", "surface", "weather")),
    "no_echo": (row_no_echo, ("t", "channel")),
    "alert": (row_alert, ("t", "channel", "cm")),
}
RIGHT_ARGS = {
    "measurement": (7, Channel.GROUND, 55, 54.5, SurfaceKind.TILES, Weather.DRY),
    "no_echo": (7, Channel.LEFT),
    "alert": (7, Channel.RIGHT, 40),
}


def arg_names(kind: str) -> list[str]:
    return list(inspect.signature(MAKERS[kind][0]).parameters)


@st.composite
def made_events(draw):
    """(kind, row_* arguments, the name of the first argument of a type the
    row does not hold, or None): half of them all of the types a row holds,
    the others with one or more arguments of other types."""
    kind = draw(st.sampled_from(sorted(MAKERS)))
    params = MAKERS[kind][1]
    wrong = draw(st.one_of(st.just(set()), st.sets(st.integers(0, len(params) - 1), min_size=1)))
    args = tuple(draw(st.sampled_from(WRONG[param]) if i in wrong else RIGHT[param])
                 for i, param in enumerate(params))
    return kind, args, arg_names(kind)[min(wrong)] if wrong else None


def expected_dict(kind: str, args: tuple) -> dict:
    """The event's dict, from its row_* arguments: `t`, `kind`, then the
    other arguments by name, an enum member as its value."""
    t, *rest = args
    return {"t": t, "kind": kind,
            **{name: value.value if isinstance(value, Enum) else value
               for name, value in zip(arg_names(kind)[1:], rest)}}


def shape(event: dict):
    return list(event), [type(value) for value in event.values()], dumps(event)


def assert_rows_or_refusals(events) -> None:
    """A row_* call whose arguments are all of the types a row holds gives a
    row, which reads as the event's dict and is written as json.dumps writes
    that dict; any other call raises TypeError naming the function and its
    first argument of another type."""
    log, expected = TraceLog(), []
    for kind, args, wrong in events:
        row = MAKERS[kind][0]
        if wrong is None:
            log.add(row(*args))
            expected.append(expected_dict(kind, args))
        else:
            with pytest.raises(TypeError, match=rf"^{row.__name__}: {wrong} cannot be "):
                row(*args)
    text = log.to_jsonl()
    assert text == expected_lines(expected)
    assert [shape(event) for event in log.events] == [shape(event) for event in expected]
    assert log.to_jsonl() == text


@settings(max_examples=400)
@given(events=st.lists(made_events(), min_size=1, max_size=6))
# One channel's true_cm, row after row: equal values of other types or signs
# are written each as its own.
@example(events=[("measurement", (4, Channel.RIGHT, 5, true_cm, SurfaceKind.CONCRETE, Weather.WET),
                  None)
                 for true_cm in (None, 600, 600.0, 0, 0.0, -0.0, 1e16, 1e-7, 2.5e-308)])
def test_rows_are_written_as_json_dumps_writes_their_dicts(events):
    assert_rows_or_refusals(events)


@pytest.mark.parametrize("kind, param", [(kind, param) for kind, (_, params) in MAKERS.items()
                                         for param in params])
def test_one_argument_of_another_type_is_refused_naming_it(kind, param):
    i = MAKERS[kind][1].index(param)
    right = RIGHT_ARGS[kind]
    assert_rows_or_refusals([(kind, right, None), *[
        (kind, right[:i] + (wrong,) + right[i + 1:], arg_names(kind)[i]) for wrong in WRONG[param]]])


ODD_VALUES = [
    None, True, False, 0, -7, 2**70, OddInt(5), 0.5, 1.0, -0.0, 1e16, 1e-7,
    float("nan"), float("inf"), float("-inf"), "ground", "tiles", "dry", "measurement",
    "alert", "no_echo", 'gro"und', "ground\\", "grass", "", "é", OddStr("ground"),
    OddStr("measurement"), LyingStr("alarm"), [1, "ground"], {"b": 1, "a": None},
]
EXTRA_KEYS = ["a", "extra", "t", "kind", "zz", "channel", "true_cm"]


@st.composite
def mutated_hot_events(draw) -> dict:
    """A hot-kind event's dict, with any float true_cm, then mutated: keys
    reordered, added or dropped, and values swapped for odd ones."""
    t = draw(st.integers(0, 10**7))
    channel = draw(st.sampled_from(Channel)).value
    kind = draw(st.sampled_from(["measurement", "alert", "no_echo"]))
    event = {"t": t, "kind": kind, "channel": channel}
    if kind == "measurement":
        true_cm = draw(st.one_of(st.none(), st.integers(0, 700), st.floats(allow_nan=True)))
        event.update(measured_cm=draw(st.integers(-5, 10**6)), true_cm=true_cm,
                     surface=draw(st.sampled_from(SurfaceKind)).value,
                     weather=draw(st.sampled_from(Weather)).value)
    elif kind == "alert":
        event["distance_cm"] = draw(st.integers(0, 700))
    items = list(event.items())
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(["swap", "add", "drop", "reorder"]))
        if mutation == "swap" and items:
            i = draw(st.integers(0, len(items) - 1))
            items[i] = (items[i][0], draw(st.sampled_from(ODD_VALUES)))
        elif mutation == "add":
            key = draw(st.sampled_from(EXTRA_KEYS))
            items = [item for item in items if item[0] != key]
            items.insert(draw(st.integers(0, len(items))), (key, draw(st.sampled_from(ODD_VALUES))))
        elif mutation == "drop" and items:
            del items[draw(st.integers(0, len(items) - 1))]
        elif mutation == "reorder":
            items = draw(st.permutations(items))
    return dict(items)


def with_value(event: dict, key: str, value) -> dict:
    return {k: (value if k == key else v) for k, v in event.items()}


def renamed(event: dict, key: str, new_key: str) -> dict:
    return {(new_key if k == key else k): v for k, v in event.items()}


@settings(max_examples=400)
@given(events=st.lists(mutated_hot_events(), min_size=1, max_size=4))
@example(events=[with_value(MEASUREMENT, "t", True), with_value(ALERT, "t", 3.0),
                 with_value(NO_ECHO, "t", OddInt(4)), with_value(ALERT, "distance_cm", False)])
@example(events=[with_value(MEASUREMENT, "true_cm", value)
                 for value in (float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 7)])
@example(events=[with_value(NO_ECHO, "channel", 'gro"und'), with_value(ALERT, "channel", "\\"),
                 with_value(MEASUREMENT, "surface", "grass"),
                 with_value(MEASUREMENT, "weather", OddStr("dry")),
                 with_value(NO_ECHO, "kind", OddStr("no_echo")),
                 with_value(ALERT, "kind", LyingStr("alarm")),
                 with_value(MEASUREMENT, "measured_cm", OddInt(50))])
@example(events=[dict(reversed(list(MEASUREMENT.items()))), {**ALERT, "extra": 1},
                 {k: v for k, v in MEASUREMENT.items() if k != "true_cm"}])
# Dicts that a check of the key set by size and presence must not take for a
# hot kind's event: seven keys but no true_cm (whose value may be None, as a
# missing key reads), three keys but no channel, and the right keys in
# another order.
@example(events=[renamed(with_value(MEASUREMENT, "true_cm", None), "true_cm", "true_mm"),
                 renamed(NO_ECHO, "channel", "chanel"),
                 {key: ALERT[key] for key in ("distance_cm", "channel", "t", "kind")}])
def test_hot_kinds_are_written_as_json_dumps_writes_them(events):
    """A hot kind's dict, however changed, goes through the encoder."""
    expected = expected_lines(events)
    assert TraceLog(events).to_jsonl() == expected
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        assert TraceLog(events).to_jsonl() == expected
