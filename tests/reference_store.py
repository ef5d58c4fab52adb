"""Test-only references for the tracking store: the original load and scan.

The load decodes every line with json.loads; TrackStore reads the lines
its insert writes with one regular-expression match instead, and must give
the same records or the same error.  Each query filters every record of
the store by device and orders the matches by (parsed timestamp, id); the
per-device index in TrackStore must give the same answers.  See
test_store_index.py.
"""

from __future__ import annotations

import json
from typing import Optional

from echoguide.server import FixRecord, StorageError, parse_record_timestamp


def load(path) -> list[FixRecord]:
    """The records of a store file, read line by line with json.loads.

    A last line with no newline is a torn append and is left out; blank
    lines are skipped; any other bad line, or an id out of the 1..n run,
    raises StorageError naming path:lineno.  The file is not changed.
    """
    records: list[FixRecord] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break
            if line.isspace():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
                record = FixRecord(
                    id=int(doc["id"]),
                    device_id=doc["device_id"],
                    latitude=float(doc["latitude"]),
                    longitude=float(doc["longitude"]),
                    timestamp=doc["timestamp"],
                    provider=doc["provider"],
                )
                hash(record.device_id)  # TypeError if unhashable
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise StorageError(f"{path}:{lineno}: corrupt record ({exc})") from None
            if record.id != len(records) + 1:
                raise StorageError(f"{path}:{lineno}: expected id {len(records) + 1}, "
                                   f"found {record.id}")
            records.append(record)
    return records


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
