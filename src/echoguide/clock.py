"""Virtual millisecond clock used by every simulated component.

Nothing in the simulator reads wall-clock time; all timing flows through a
VirtualClock instance so runs are deterministic and fast.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonic integer-millisecond clock advanced explicitly by the caller."""

    def __init__(self) -> None:
        self._now_ms = 0

    def now(self) -> int:
        return self._now_ms

    def advance(self, delta_ms: int) -> int:
        """Move time forward by delta_ms and return the new time."""
        if delta_ms < 0:
            raise ValueError("clock cannot move backwards")
        self._now_ms += delta_ms
        return self._now_ms
