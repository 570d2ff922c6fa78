"""Replica-side storage state: redo application and read holdback.

A :class:`ReplicaStore` mirrors one shard's data by applying redo records in
LSN order. It tracks:

- ``max_commit_ts`` — the largest commit timestamp applied (from COMMIT,
  COMMIT_PREPARED, HEARTBEAT, and DDL records). This is the value the RCP
  collector polls (§IV-A).
- *unresolved* transactions — those with a replayed ``PENDING_COMMIT`` or
  ``PREPARE`` but no outcome record yet. Their tuples are effectively
  locked: a reader whose visibility check touches one must wait until the
  outcome record is replayed (the paper's safeguard against out-of-order
  commit-record writes and in-doubt 2PC transactions).

The store is passive; :class:`~repro.replication.replayer.Replayer` drives
it with a timing model.
"""

from __future__ import annotations

import typing

from repro.errors import StorageError
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.storage.catalog import Catalog
from repro.storage.clog import CommitLog, TxnStatus
from repro.storage.engine import CommitHoldback
from repro.storage.heap import HeapTable, RowVersion
from repro.storage.redo import (
    RedoAbort,
    RedoAbortPrepared,
    RedoCommit,
    RedoCommitPrepared,
    RedoDdl,
    RedoDelete,
    RedoHeartbeat,
    RedoInsert,
    RedoPendingCommit,
    RedoPrepare,
    RedoRecord,
    RedoUpdate,
)
from repro.storage.snapshot import Snapshot
from repro.storage.vacuum import vacuum_tables


class ReplicaStore(CommitHoldback):
    """Applied state of one shard replica."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.catalog = Catalog()
        self.clog = CommitLog()
        self._tables: dict[str, HeapTable] = {}
        self.max_commit_ts = 0
        self.applied_lsn = 0
        self.records_applied = 0
        # txid -> list of versions whose predecessor we ended (for abort undo)
        self._txn_versions: dict[int, list[tuple]] = {}
        # Unresolved transactions: PENDING_COMMIT/PREPARE seen, outcome not
        # (CommitHoldback).
        self._unresolved: dict[int, Event | None] = {}
        # Readers waiting for the applied frontier to reach a timestamp
        # (safe-time waits): list of (threshold_ts, event).
        self._frontier_waiters: list[tuple[int, Event]] = []

    # ------------------------------------------------------------------
    # Redo application
    # ------------------------------------------------------------------
    def apply(self, record: RedoRecord) -> None:
        """Apply one redo record (records must arrive in LSN order)."""
        if record.lsn and record.lsn <= self.applied_lsn:
            return  # duplicate delivery (e.g. catch-up overlap)
        handler = self._APPLY[type(record)]
        handler(self, record)
        if record.lsn:
            self.applied_lsn = record.lsn
        self.records_applied += 1

    def apply_batch(self, records: list[RedoRecord]) -> None:
        """Apply a batch of redo records in order.

        Equivalent to ``for r in records: self.apply(r)`` with the dispatch
        table and bookkeeping hoisted out of the loop — the replayer's hot
        path applies thousands of records per simulated batch."""
        dispatch = self._APPLY
        applied_lsn = self.applied_lsn
        count = 0
        for record in records:
            lsn = record.lsn
            if lsn and lsn <= applied_lsn:
                continue
            dispatch[type(record)](self, record)
            if lsn:
                applied_lsn = lsn
            count += 1
        self.applied_lsn = applied_lsn
        self.records_applied += count

    def _apply_insert(self, record: RedoInsert) -> None:
        self.clog.ensure(record.txid)
        heap = self.table(record.table)
        # The after-image is adopted, not copied (image immutability,
        # :mod:`repro.storage.heap`).
        version = RowVersion(key=record.key, data=record.row, xmin=record.txid)
        heap.add_version(version)
        self._note_undo(record.txid, ("insert", heap, version, None))

    def _apply_update(self, record: RedoUpdate) -> None:
        self.clog.ensure(record.txid)
        heap = self.table(record.table)
        old = self._current_unended(heap, record.key)
        if old is not None:
            old.xmax = record.txid
        version = RowVersion(key=record.key, data=record.row, xmin=record.txid)
        heap.add_version(version)
        self._note_undo(record.txid, ("update", heap, version, old))

    def _apply_delete(self, record: RedoDelete) -> None:
        self.clog.ensure(record.txid)
        heap = self.table(record.table)
        old = self._current_unended(heap, record.key)
        if old is not None:
            old.xmax = record.txid
            self._note_undo(record.txid, ("delete", heap, None, old))

    def _note_undo(self, txid: int, entry: tuple) -> None:
        entries = self._txn_versions.get(txid)
        if entries is None:
            self._txn_versions[txid] = [entry]
        else:
            entries.append(entry)

    def _current_unended(self, heap: HeapTable, key: tuple) -> RowVersion | None:
        """The version this write supersedes: the first un-ended one. Redo
        arrives in LSN order, which replays the primary's row-lock order, so
        a transaction's own un-ended version can only be that first one
        (chain invariant, :mod:`repro.storage.heap`)."""
        for version in heap.versions(key):
            if version.xmax is None:
                return version
        return None

    def _apply_pending_commit(self, record: RedoPendingCommit) -> None:
        self.clog.ensure(record.txid)
        self._unresolved.setdefault(record.txid, None)

    def _apply_prepare(self, record: RedoPrepare) -> None:
        self.clog.ensure(record.txid)
        self.clog.prepare(record.txid)
        self._unresolved.setdefault(record.txid, None)

    def _apply_commit(self, record: RedoCommit | RedoCommitPrepared) -> None:
        self.clog.ensure(record.txid)
        self.clog.commit(record.txid, record.commit_ts)
        self._txn_versions.pop(record.txid, None)
        self._note_ts(record.commit_ts)
        self._resolve(record.txid)

    def _apply_abort(self, record: RedoAbort | RedoAbortPrepared) -> None:
        self._undo(record.txid)
        self.clog.ensure(record.txid)
        self.clog.abort(record.txid)
        self._resolve(record.txid)

    def _undo(self, txid: int) -> None:
        for entry in reversed(self._txn_versions.pop(txid, [])):
            _kind, heap, version, old_version = entry
            if version is not None:
                heap.remove_version(version)
            if old_version is not None and old_version.xmax == txid:
                old_version.xmax = None

    def _apply_ddl(self, record: RedoDdl) -> None:
        if record.action == "create_table":
            self.catalog.create_table(record.payload, ddl_ts=record.commit_ts)
            self._tables[record.table] = HeapTable(record.table)
        elif record.action == "drop_table":
            self.catalog.drop_table(record.table, ddl_ts=record.commit_ts)
            self._tables.pop(record.table, None)
        elif record.action == "create_index":
            self.table(record.table).create_index(record.payload)
            self.catalog.record_ddl(record.table, record.commit_ts)
        else:
            raise StorageError(f"unknown DDL action {record.action!r}")
        self._note_ts(record.commit_ts)

    def _apply_heartbeat(self, record: RedoHeartbeat) -> None:
        self._note_ts(record.commit_ts)

    def _note_ts(self, commit_ts: int) -> None:
        if commit_ts > self.max_commit_ts:
            self.max_commit_ts = commit_ts
            if self.env.series_on:
                self.env.series.gauge("repl.applied_ts", commit_ts,
                                      node=self.name)
            if self._frontier_waiters:
                still_waiting = []
                for threshold, event in self._frontier_waiters:
                    if threshold <= commit_ts:
                        if not event.triggered:
                            event.succeed(commit_ts)
                    else:
                        still_waiting.append((threshold, event))
                self._frontier_waiters = still_waiting

    _APPLY: typing.ClassVar[dict] = {}

    # ------------------------------------------------------------------
    # Reads (with pending holdback)
    # ------------------------------------------------------------------
    def table(self, name: str) -> HeapTable:
        heap = self._tables.get(name)
        if heap is None:
            raise StorageError(f"replica {self.name} has no table {name!r}")
        return heap

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def read(self, table: str, key: tuple, snapshot: Snapshot) -> dict | None:
        """Non-blocking visible read (caller must have cleared holdbacks)."""
        return self.table(table).read(key, snapshot, self.clog)

    def wait_frontier(self, read_ts: int):
        """Generator: suspend until the applied frontier reaches ``read_ts``.

        This is the replica's safe-time wait: a read at a snapshot the
        replica has not fully replayed yet blocks instead of returning a
        hole. Combined with the RCP (which never exceeds any polled
        replica's frontier) the wait is normally zero; it only bites when
        routing raced a metrics refresh or a replica fell behind.
        """
        while self.max_commit_ts < read_ts:
            event = Event(self.env)
            self._frontier_waiters.append((read_ts, event))
            yield event
        return self.max_commit_ts

    def scan(self, table: str, snapshot: Snapshot,
             predicate: typing.Callable[[dict], bool] | None = None) -> list[dict]:
        return self.table(table).scan(snapshot, self.clog, predicate)

    def lookup_index(self, table: str, column: str, value: typing.Any,
                     snapshot: Snapshot) -> list[dict]:
        return self.table(table).lookup_index(column, value, snapshot, self.clog)

    def unresolved_count(self) -> int:
        return len(self._unresolved)

    # ------------------------------------------------------------------
    # Vacuum (MVCC garbage collection)
    # ------------------------------------------------------------------
    def vacuum(self, retention_ns: int):
        """Reclaim dead versions below ``max_commit_ts - retention_ns``.

        The retention window keeps every snapshot the RCP can still hand
        out readable (the RCP never exceeds this replica's frontier, and
        stale routing is bounded by the lag guard)."""
        horizon = self.max_commit_ts - retention_ns
        return vacuum_tables(self._tables, self.clog, horizon)

    # ------------------------------------------------------------------
    # Bulk load (initial base copy, mirrors primary bulk_load)
    # ------------------------------------------------------------------
    def bulk_load(self, table: str, rows: typing.Iterable[dict],
                  schema, load_ts: int = 1) -> int:
        """Install rows directly as committed at ``load_ts`` (base backup);
        each row dict is adopted as the version's image, not copied."""
        if not self.has_table(table):
            self.catalog.create_table(schema, ddl_ts=load_ts)
            self._tables[table] = HeapTable(table)
        heap = self.table(table)
        self.clog.ensure(0)
        if self.clog.status(0) is not TxnStatus.COMMITTED:
            self.clog.commit(0, load_ts)
        count = 0
        for row in rows:
            key = schema.key_of(row)
            heap.add_version(RowVersion(key=key, data=row, xmin=0))
            count += 1
        self._note_ts(load_ts)
        return count


ReplicaStore._APPLY = {
    RedoInsert: ReplicaStore._apply_insert,
    RedoUpdate: ReplicaStore._apply_update,
    RedoDelete: ReplicaStore._apply_delete,
    RedoPendingCommit: ReplicaStore._apply_pending_commit,
    RedoPrepare: ReplicaStore._apply_prepare,
    RedoCommit: ReplicaStore._apply_commit,
    RedoCommitPrepared: ReplicaStore._apply_commit,
    RedoAbort: ReplicaStore._apply_abort,
    RedoAbortPrepared: ReplicaStore._apply_abort,
    RedoDdl: ReplicaStore._apply_ddl,
    RedoHeartbeat: ReplicaStore._apply_heartbeat,
}
