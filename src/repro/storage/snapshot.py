"""MVCC snapshots.

Visibility is purely timestamp-based (as in both GTM and GClock modes of the
paper): a version is visible to a snapshot if its creating transaction
committed with ``commit_ts <= read_ts`` and it was not deleted by a
transaction that also committed with ``commit_ts <= read_ts``. A
transaction always sees its own uncommitted writes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Snapshot:
    """A point-in-time view of the database.

    ``read_ts`` orders against commit timestamps; ``txid`` (when reading
    inside a transaction) enables own-write visibility.
    """

    read_ts: int
    txid: int | None = None
