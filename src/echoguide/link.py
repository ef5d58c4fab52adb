"""Newline-framed serial byte stream between the wearable and the handset.

The link is an ordered lossless byte pipe; message boundaries exist only as
0x0A terminators, and each frame carries one obstacle word.  The receiver
may drain the buffer at arbitrary byte positions, so deframing keeps any
trailing partial frame for the next read.
"""

from __future__ import annotations

from enum import Enum

FRAME_DELIMITER = b"\n"


class ObstacleMessage(Enum):
    """The one-word frames the wearable sends, one per channel of the same name."""

    GROUND = "Ground"
    LEFT = "Left"
    RIGHT = "Right"


class LinkBuffer:
    """In-flight bytes of the stream, not yet read by the receiver."""

    def __init__(self) -> None:
        self.pending = bytearray()

    def send(self, frame: bytes) -> None:
        """Append bytes to the stream.  Chunks need not align with frames."""
        if not frame:
            raise ValueError("cannot send an empty frame")
        self.pending.extend(frame)

    def deframe(self) -> list[str]:
        """Split buffered bytes into complete tokens, keeping any partial tail.

        Returns the text of each completed frame, delimiter stripped, in send
        order.  Never blocks and never loses bytes: whatever follows the last
        delimiter stays buffered until more bytes arrive.
        """
        if FRAME_DELIMITER not in self.pending:
            return []
        *complete, tail = bytes(self.pending).split(FRAME_DELIMITER)
        self.pending = bytearray(tail)
        return [part.decode("ascii", errors="replace") for part in complete]


__all__ = ["LinkBuffer", "FRAME_DELIMITER", "ObstacleMessage"]
