"""Serial link framing: ordered lossless delivery across arbitrary chunk
boundaries."""

from __future__ import annotations

import random

import pytest

from echoguide.link import FRAME_DELIMITER, LinkBuffer


def test_single_frame_roundtrip():
    link = LinkBuffer()
    link.send(b"Ground\n")
    assert link.deframe() == ["Ground"]
    assert link.deframe() == []


def test_partial_frame_waits_for_terminator():
    link = LinkBuffer()
    link.send(b"Gro")
    assert link.deframe() == []
    link.send(b"und")
    assert link.deframe() == []
    link.send(b"\nLeft\nRi")
    assert link.deframe() == ["Ground", "Left"]
    link.send(b"ght\n")
    assert link.deframe() == ["Right"]
    assert bytes(link.pending) == b""


def test_multiple_frames_in_one_chunk():
    link = LinkBuffer()
    link.send(b"Ground\nLeft\nRight\n")
    assert link.deframe() == ["Ground", "Left", "Right"]


def test_empty_send_rejected():
    link = LinkBuffer()
    with pytest.raises(ValueError):
        link.send(b"")


def test_delimiter_is_newline_byte():
    assert FRAME_DELIMITER == b"\n"
    assert FRAME_DELIMITER[0] == 0x0A


def test_chunking_invariance_random_boundaries():
    # Property: however the byte stream is sliced, the concatenation of
    # deframe outputs equals the sent token sequence.
    rng = random.Random(20240817)
    words = ["Ground", "Left", "Right", "Stop", "A", "LongerToken123"]
    for _ in range(300):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 12))]
        stream = "".join(token + "\n" for token in tokens).encode("ascii")
        link = LinkBuffer()
        received: list[str] = []
        position = 0
        while position < len(stream):
            size = rng.randint(1, max(1, len(stream) - position))
            link.send(stream[position:position + size])
            position += size
            if rng.random() < 0.5:
                received.extend(link.deframe())
        received.extend(link.deframe())
        assert received == tokens
        assert bytes(link.pending) == b""

