"""Test-only reference for the tracking store's queries: the original scan.

Each query filters every record of the store by device and orders the
matches by (parsed timestamp, id).  The per-device index in TrackStore must
give the same answers; see test_store_index.py.
"""

from __future__ import annotations

from typing import Optional

from echoguide.server import FixRecord, parse_record_timestamp


def _sort_key(record: FixRecord):
    return parse_record_timestamp(record.timestamp), record.id


def latest_fix(records: list[FixRecord], device_id: str) -> Optional[FixRecord]:
    fixes = [r for r in records if r.device_id == device_id]
    if not fixes:
        return None
    return max(fixes, key=_sort_key)


def history(records: list[FixRecord], device_id: str, limit: int) -> list[FixRecord]:
    if limit < 1:
        raise ValueError("limit must be >= 1")
    fixes = sorted((r for r in records if r.device_id == device_id), key=_sort_key)
    return fixes[-limit:]
