"""Commit log (clog): the authoritative record of transaction outcomes.

MVCC tuple versions carry only the writing transaction id; visibility is
resolved by looking the id up here. A transaction is in exactly one state:

    IN_PROGRESS -> PREPARED -> COMMITTED(commit_ts) | ABORTED
                \\--------------^

Commit timestamps, not ids, order transactions: ids are just handles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TransactionError


class TxnStatus(enum.Enum):
    IN_PROGRESS = "in_progress"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TxnRecord:
    status: TxnStatus
    commit_ts: int | None = None


class CommitLog:
    """Maps transaction id -> outcome.

    ``_commit_ts`` mirrors the committed subset as a flat ``txid ->
    commit_ts`` table so the visibility hot path
    (:meth:`is_committed_before`, called per version per read) is a single
    dict probe instead of a record lookup + status comparison. A commit is
    final — abort-after-commit raises — so entries never need updating,
    only insertion (commit) and removal (vacuum pruning / rebuild)."""

    def __init__(self):
        self._records: dict[int, TxnRecord] = {}
        self._commit_ts: dict[int, int] = {}

    def begin(self, txid: int) -> None:
        if txid in self._records:
            raise TransactionError(f"transaction {txid} already exists in clog")
        self._records[txid] = TxnRecord(TxnStatus.IN_PROGRESS)

    def ensure(self, txid: int) -> None:
        """Register ``txid`` as in-progress if unseen (replica replay path,
        where data records may arrive before any explicit begin)."""
        if txid not in self._records:
            self._records[txid] = TxnRecord(TxnStatus.IN_PROGRESS)

    def status(self, txid: int) -> TxnStatus:
        record = self._records.get(txid)
        if record is None:
            raise TransactionError(f"unknown transaction {txid}")
        return record.status

    def known(self, txid: int) -> bool:
        return txid in self._records

    def prepare(self, txid: int) -> None:
        record = self._records.get(txid)
        if record is None or record.status is not TxnStatus.IN_PROGRESS:
            raise TransactionError(f"cannot prepare transaction {txid}")
        record.status = TxnStatus.PREPARED

    def commit(self, txid: int, commit_ts: int) -> None:
        record = self._records.get(txid)
        if record is None:
            raise TransactionError(f"cannot commit unknown transaction {txid}")
        if record.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            raise TransactionError(
                f"transaction {txid} already finished ({record.status.value})")
        record.status = TxnStatus.COMMITTED
        record.commit_ts = commit_ts
        self._commit_ts[txid] = commit_ts

    def abort(self, txid: int) -> None:
        record = self._records.get(txid)
        if record is None:
            raise TransactionError(f"cannot abort unknown transaction {txid}")
        if record.status is TxnStatus.COMMITTED:
            raise TransactionError(f"transaction {txid} already committed")
        record.status = TxnStatus.ABORTED
        record.commit_ts = None

    def commit_ts(self, txid: int) -> int | None:
        """The commit timestamp, or None if not committed."""
        return self._commit_ts.get(txid)

    def is_committed_before(self, txid: int, read_ts: int) -> bool:
        """True if ``txid`` committed with a timestamp <= ``read_ts``."""
        ts = self._commit_ts.get(txid)
        return ts is not None and ts <= read_ts

    def copy(self) -> CommitLog:
        """An independent copy (a replica rebuild's base image)."""
        clone = CommitLog()
        clone._records = {txid: TxnRecord(record.status, record.commit_ts)
                          for txid, record in self._records.items()}
        clone._commit_ts = dict(self._commit_ts)
        return clone
