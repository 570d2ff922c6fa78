"""Write-ahead (redo) log buffer.

Primaries append records here; log shippers subscribe and drain. The buffer
assigns monotonically increasing LSNs and notifies subscribers on append so
shipping can be latency-driven (flush small batches fast) rather than
poll-driven.

Once every replica has *applied* an LSN (tracked by the primary's
:class:`AckTracker`), the prefix below it can never be read again —
catch-up requests always start at the requester's enqueued LSN, which is
at least its applied LSN, and in-flight batches only carry records above
the receiver's applied LSN. Truncating that prefix keeps a long run's WAL
at O(window) records, not O(history).
"""

from __future__ import annotations

import typing

from repro.storage.redo import RedoRecord


class WalBuffer:
    """An append-only in-memory redo log with subscriber callbacks."""

    def __init__(self, name: str = "wal", start_lsn: int = 1):
        self.name = name
        self._records: list[RedoRecord] = []
        #: LSN of the first record this buffer will hold. Normally 1; a
        #: promoted replica's fresh WAL continues from its applied LSN so
        #: the shard keeps one dense LSN sequence across the failover.
        self.start_lsn = start_lsn
        self._next_lsn = start_lsn
        self._subscribers: list[typing.Callable[[RedoRecord], None]] = []
        self.bytes_written = 0
        self.truncated_records = 0

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def append(self, record: RedoRecord) -> int:
        """Assign an LSN, stamp the wire size, store the record, notify
        subscribers."""
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self._records.append(record)
        record.wire_bytes = size = record.size_bytes()
        self.bytes_written += size
        for subscriber in self._subscribers:
            subscriber(record)
        return record.lsn

    def subscribe(self, callback: typing.Callable[[RedoRecord], None]) -> None:
        """Register a callback invoked synchronously on every append."""
        self._subscribers.append(callback)

    def records_from(self, lsn_exclusive: int) -> list[RedoRecord]:
        """All records with LSN > ``lsn_exclusive`` (replica catch-up).

        A request below ``start_lsn - 1`` returns everything still held
        (a rebuilt replica asking "send me what you have"); legitimate
        catch-up never lands inside a truncated prefix because truncation
        stays below every replica's applied LSN.
        """
        # LSNs are dense from start_lsn, so slicing is exact.
        index = max(0, lsn_exclusive - self.start_lsn + 1)
        return self._records[index:]

    def truncate_below(self, keep_from_lsn: int) -> int:
        """Drop records with LSN < ``keep_from_lsn``. Only call with
        ``keep_from_lsn`` at most one past the minimum replica applied
        LSN. Returns the number dropped."""
        count = keep_from_lsn - self.start_lsn
        if count <= 0:
            return 0
        del self._records[:count]
        self.start_lsn = keep_from_lsn
        self.truncated_records += count
        return count

    def __len__(self) -> int:
        return len(self._records)
