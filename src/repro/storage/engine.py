"""One shard's MVCC store, in either of its two roles.

:class:`StorageEngine` owns a shard's catalog, commit log, heaps, undo map,
frontier (``max_commit_ts``) and the read holdback, with the read, scan,
index-lookup, vacuum and bulk-load paths a primary and its replicas share.
Both roles write rows through one path, the replay handlers
``_apply_insert``/``_apply_update``/``_apply_delete``: only they build row
versions, and only :meth:`_note_undo` records undo.

- A **replica** applies the primary's redo in LSN order (:meth:`apply_batch`),
  and a handler finds the superseded version itself (:meth:`_current_unended`).
- A **primary**'s DML checks the write (duplicate key, concurrent insert,
  :meth:`current_for_write`), evaluates callable SET values, appends the
  redo record, then applies it through the same handler with the version
  its check found: versions exist at once (steal-style). Updates and
  deletes use read-committed write semantics (as in GaussDB/openGauss):
  after the row lock is granted, the write applies to the *latest
  committed* version, not the transaction's snapshot, which keeps TPC-C
  abort rates realistic for hot rows. The row lock also upholds the chain
  invariant (:mod:`repro.storage.heap`) that finds that version at the
  head of its chain; the engine trusts its caller to hold it. Commit
  follows §IV-A: a ``PENDING_COMMIT`` record is logged *before* the commit
  timestamp is obtained, then the ``COMMIT`` record carries the timestamp.

A transaction is *unresolved* from its ``PENDING_COMMIT`` or ``PREPARE``
until its outcome, and a reader whose visibility check touches one of its
tuples waits for it (:meth:`read_waiting`): on a replica the outcome may
not be replayed yet, and on a primary a GClock commit timestamp can land
below an existing snapshot. Promotion flips a replica's store to the
primary role in place (:meth:`promote`). A rebuild copies a primary's
store, in-flight undo and holdback included (:meth:`copy_into`), and
replays the WAL from the copy's tail: a base image plus redo.
"""

from __future__ import annotations

import typing

from repro.errors import DuplicateKeyError, StorageError, TransactionError
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.storage.catalog import Catalog, TableSchema
from repro.storage.clog import CommitLog, TxnStatus
from repro.storage.heap import HeapTable, RowVersion
from repro.storage.locks import LockTable
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
from repro.storage.wal import WalBuffer


class StorageEngine:
    """One shard's MVCC store: a primary's, or a replica's."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.catalog = Catalog()
        self.clog = CommitLog()
        self.wal = WalBuffer(name=f"{name}.wal")
        self.locks = LockTable(env)
        self._tables: dict[str, HeapTable] = {}
        # txid -> undo entries (kind, heap, new version, version it ended),
        # applied in reverse on abort.
        self._undo: dict[int, list[tuple]] = {}
        # Transactions in the commit window (PENDING_COMMIT or PREPARE, no
        # outcome yet) -> the event a blocked reader waits on, made only
        # once one blocks.
        self._unresolved: dict[int, Event | None] = {}
        #: The frontier: largest commit timestamp committed, applied or
        #: heartbeated here. A primary's single-shard reads snapshot at it;
        #: a replica's is what the RCP collector polls (§IV-A).
        self.max_commit_ts = 0
        #: Sim time the frontier last moved (a quiet primary heartbeats).
        self.frontier_moved_at = 0
        self.applied_lsn = 0
        self.records_applied = 0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema, ddl_ts: int = 0,
                     log: bool = True) -> None:
        self.catalog.create_table(schema, ddl_ts)
        self._tables[schema.name] = HeapTable(schema.name)
        if log:
            self.wal.append(RedoDdl(txid=0, action="create_table",
                                    table=schema.name, payload=schema,
                                    commit_ts=ddl_ts))
            self._note_commit_ts(ddl_ts)

    def drop_table(self, name: str, ddl_ts: int = 0, log: bool = True) -> None:
        self.catalog.drop_table(name, ddl_ts)
        del self._tables[name]
        if log:
            self.wal.append(RedoDdl(txid=0, action="drop_table", table=name,
                                    commit_ts=ddl_ts))
            self._note_commit_ts(ddl_ts)

    def create_index(self, table: str, column: str, ddl_ts: int = 0,
                     log: bool = True) -> None:
        self.table(table).create_index(column)
        self.catalog.record_ddl(table, ddl_ts)
        if log:
            self.wal.append(RedoDdl(txid=0, action="create_index", table=table,
                                    payload=column, commit_ts=ddl_ts))
            self._note_commit_ts(ddl_ts)

    def table(self, name: str) -> HeapTable:
        heap = self._tables.get(name)
        if heap is None:
            # Raises TableNotFoundError if genuinely unknown:
            self.catalog.table(name)
            raise StorageError(f"table {name} has no heap on shard {self.name}")
        return heap

    # ------------------------------------------------------------------
    # Transaction lifecycle (primary)
    # ------------------------------------------------------------------
    def begin(self, txid: int) -> None:
        self.clog.begin(txid)

    def is_active(self, txid: int) -> bool:
        return (self.clog.known(txid)
                and self.clog.status(txid) in (TxnStatus.IN_PROGRESS, TxnStatus.PREPARED))

    def tables_written(self, txid: int) -> set[str]:
        """Names of tables this in-flight transaction has modified."""
        return {entry[1].name for entry in self._undo.get(txid, [])}

    def log_pending_commit(self, txid: int) -> int:
        """§IV-A: written before the commit timestamp is obtained."""
        self._unresolved.setdefault(txid, None)
        return self.wal.append(RedoPendingCommit(txid=txid))

    def commit(self, txid: int, commit_ts: int) -> int:
        """Commit locally and log the commit record. Returns its LSN."""
        return self._commit(txid, commit_ts,
                            RedoCommit(txid=txid, commit_ts=commit_ts))

    def _commit(self, txid: int, commit_ts: int, record) -> int:
        """Commit ``txid`` at ``commit_ts``, log ``record``, then release
        its row locks before waking readers held back on it."""
        self.clog.commit(txid, commit_ts)
        self._undo.pop(txid, None)
        lsn = self.wal.append(record)
        self.locks.release_all(txid)
        self._note_commit_ts(commit_ts)
        self._resolve(txid)
        return lsn

    def abort(self, txid: int) -> int:
        """Roll back and log the abort record. Returns its LSN."""
        return self._abort(txid, RedoAbort(txid=txid))

    def _abort(self, txid: int, record) -> int:
        """Roll ``txid`` back, log ``record`` as its outcome, then release
        its row locks before waking readers held back on it."""
        self._rollback(txid)
        lsn = self.wal.append(record)
        self.locks.release_all(txid)
        self._resolve(txid)
        return lsn

    def _rollback(self, txid: int) -> None:
        """Undo ``txid``'s writes newest first (each removed version is at
        the head of its chain) and record the abort (both roles)."""
        for _kind, heap, version, old_version in reversed(self._undo.pop(txid, [])):
            if old_version is not None and old_version.xmax == txid:
                old_version.xmax = None
            if version is not None:
                heap.remove_version(version)
        self.clog.abort(txid)

    def _resolve(self, txid: int) -> None:
        event = self._unresolved.pop(txid, None)
        if event is not None:
            event.succeed(txid)

    def prepare(self, txid: int) -> int:
        """2PC phase one."""
        self.clog.prepare(txid)
        self._unresolved.setdefault(txid, None)
        return self.wal.append(RedoPrepare(txid=txid))

    def commit_prepared(self, txid: int, commit_ts: int) -> int | None:
        """2PC phase two: commit and log. Returns the record's LSN, or None
        for a repeat on a transaction already committed at ``commit_ts``,
        which logs nothing (:meth:`_phase_two_done`)."""
        if self._phase_two_done(txid, TxnStatus.COMMITTED, commit_ts):
            return None
        return self._commit(txid, commit_ts,
                            RedoCommitPrepared(txid=txid, commit_ts=commit_ts))

    def abort_prepared(self, txid: int) -> int | None:
        """2PC phase two: roll back and log. Returns the record's LSN, or
        None for a repeat on an aborted transaction, which logs nothing."""
        if self._phase_two_done(txid, TxnStatus.ABORTED, None):
            return None
        return self._abort(txid, RedoAbortPrepared(txid=txid))

    def _phase_two_done(self, txid: int, outcome: TxnStatus,
                        commit_ts: int | None) -> bool:
        """Whether the commit log already holds ``outcome`` (at
        ``commit_ts``) for ``txid``: a repeated phase two, answered from
        the clog so a coordinator may retry. Raises
        :class:`TransactionError` if ``txid`` is neither that nor
        prepared: the other outcome, or another timestamp."""
        status = self.clog.status(txid)
        if status is outcome and self.clog.commit_ts(txid) == commit_ts:
            return True
        if status is not TxnStatus.PREPARED:
            raise TransactionError(f"transaction {txid} is not prepared")
        return False

    def heartbeat(self, commit_ts: int) -> int:
        """Log a heartbeat so idle replicas keep advancing (§IV-A)."""
        self._note_commit_ts(commit_ts)
        return self.wal.append(RedoHeartbeat(txid=0, commit_ts=commit_ts))

    def _note_commit_ts(self, commit_ts: int) -> None:
        if commit_ts > self.max_commit_ts:
            self.max_commit_ts = commit_ts
            self.frontier_moved_at = self.env.now

    #: How replay and bulk load move the frontier. A replica store built as
    #: one (:class:`~repro.replication.replica.ReplicaStore`) also publishes
    #: the move to its safe-time waiters.
    _note_applied = _note_commit_ts

    # ------------------------------------------------------------------
    # DML (primary): check, log, then apply through the replay handlers
    # ------------------------------------------------------------------
    def insert(self, txid: int, table: str, row: dict) -> None:
        schema = self.catalog.table(table)
        heap = self.table(table)
        key = schema.key_of(row)
        if self.current_for_write(heap, key, txid) is not None:
            raise DuplicateKeyError(f"duplicate key {key} in {table}")
        # Inserts take no row lock, so another transaction's uncommitted
        # insert may sit on the chain; in-flight versions are above every
        # committed one, so the walk ends at the first committed creator.
        committed = self.clog._commit_ts
        for version in heap.versions(key):
            if version.xmin in committed:
                break
            if version.xmax is None:
                raise DuplicateKeyError(
                    f"concurrent insert of key {key} in {table}")
        record = RedoInsert(txid=txid, table=table, key=key, row=dict(row))
        self.wal.append(record)
        self._apply_insert(record)

    def update(self, txid: int, table: str, key: tuple,
               changes: typing.Mapping[str, typing.Any]) -> dict | None:
        """Apply ``changes`` to the latest committed version of ``key``; a
        callable value maps the column's old value to its new one (``SET
        col = col + 1``), and one that raises changes nothing.

        The caller must already hold the row lock. Returns the new row, or
        None if the row does not exist (or is deleted).
        """
        heap = self.table(table)
        current = self.current_for_write(heap, key, txid)
        if current is None:
            return None
        new_data = dict(current.data)
        for column, value in changes.items():
            if callable(value):
                value = value(current.data.get(column))
            new_data[column] = value
        record = RedoUpdate(txid=txid, table=table, key=key, row=new_data)
        self.wal.append(record)
        self._apply_update(record, current)
        return new_data

    def delete(self, txid: int, table: str, key: tuple) -> bool:
        """Delete the latest committed version of ``key``. Caller holds the
        row lock. Returns True if a row was deleted."""
        heap = self.table(table)
        current = self.current_for_write(heap, key, txid)
        if current is None:
            return False
        record = RedoDelete(txid=txid, table=table, key=key)
        self.wal.append(record)
        self._apply_delete(record, current)
        return True

    def current_for_write(self, heap: HeapTable, key: tuple,
                          txid: int) -> RowVersion | None:
        """The version a write by ``txid`` targets: its own un-ended write,
        else the committed version neither a committed transaction nor
        ``txid`` itself has ended.

        By the chain invariant (see :mod:`repro.storage.heap`) at most one
        version qualifies, so the newest-first walk returns at the first
        that does — the head or its neighbour on a live key, however long
        the chain. An ``xmax`` the commit log no longer knows was pruned by
        vacuum, which only forgets finished transactions."""
        committed = self.clog._commit_ts
        for version in heap.versions(key):
            xmax = version.xmax
            if xmax is None:
                if version.xmin == txid or version.xmin in committed:
                    return version
            elif (version.xmin in committed and xmax != txid
                    and xmax not in committed and self.clog.known(xmax)):
                return version
        return None

    # ------------------------------------------------------------------
    # Redo application (replay, and the primary's DML)
    # ------------------------------------------------------------------
    def apply(self, record: RedoRecord) -> None:
        """Apply one redo record (records must arrive in LSN order)."""
        self.apply_batch([record])

    def apply_batch(self, records: list[RedoRecord]) -> None:
        """Apply redo records in LSN order, skipping any at or below
        ``applied_lsn`` (a duplicate delivery, e.g. catch-up overlap). The
        dispatch table and bookkeeping are hoisted out of the loop — the
        replayer's hot path applies thousands of records per batch."""
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

    # ``old``: the version the write supersedes, if the primary's check
    # found it; replay looks it up.
    def _apply_insert(self, record: RedoInsert) -> None:
        self.clog.ensure(record.txid)
        heap = self.table(record.table)
        # The after-image is adopted, not copied (image immutability,
        # :mod:`repro.storage.heap`).
        version = RowVersion(key=record.key, data=record.row, xmin=record.txid)
        heap.add_version(version)
        self._note_undo(record.txid, ("insert", heap, version, None))

    def _apply_update(self, record: RedoUpdate,
                      old: RowVersion | None = None) -> None:
        self.clog.ensure(record.txid)
        heap = self.table(record.table)
        if old is None:
            old = self._current_unended(heap, record.key)
        if old is not None:
            old.xmax = record.txid
        version = RowVersion(key=record.key, data=record.row, xmin=record.txid)
        heap.add_version(version)
        self._note_undo(record.txid, ("update", heap, version, old))

    def _apply_delete(self, record: RedoDelete,
                      old: RowVersion | None = None) -> None:
        self.clog.ensure(record.txid)
        heap = self.table(record.table)
        if old is None:
            old = self._current_unended(heap, record.key)
        if old is not None:
            old.xmax = record.txid
            self._note_undo(record.txid, ("delete", heap, None, old))

    def _note_undo(self, txid: int, entry: tuple) -> None:
        entries = self._undo.get(txid)
        if entries is None:
            self._undo[txid] = [entry]
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
        self._undo.pop(record.txid, None)
        self._note_applied(record.commit_ts)
        self._resolve(record.txid)

    def _apply_abort(self, record: RedoAbort | RedoAbortPrepared) -> None:
        self.clog.ensure(record.txid)
        self._rollback(record.txid)
        self._resolve(record.txid)

    def _apply_ddl(self, record: RedoDdl) -> None:
        if record.action == "create_table":
            self.create_table(record.payload, record.commit_ts, log=False)
        elif record.action == "drop_table":
            self.drop_table(record.table, record.commit_ts, log=False)
        elif record.action == "create_index":
            self.create_index(record.table, record.payload, record.commit_ts,
                              log=False)
        else:
            raise StorageError(f"unknown DDL action {record.action!r}")
        self._note_applied(record.commit_ts)

    def _apply_heartbeat(self, record: RedoHeartbeat) -> None:
        self._note_applied(record.commit_ts)

    _APPLY: typing.ClassVar[dict] = {}

    # ------------------------------------------------------------------
    # Role changes
    # ------------------------------------------------------------------
    def promote(self) -> int:
        """Take the primary role in place: a WAL that continues from
        ``applied_lsn``, and in-doubt transactions (``PENDING_COMMIT`` or
        ``PREPARE`` replayed, no outcome) rolled back. Writes of transactions
        short of their commit window stay, and the undo map starts empty, as
        a new primary's does. Returns how many transactions it aborted."""
        self.wal = WalBuffer(name=self.wal.name, start_lsn=self.applied_lsn + 1)
        in_doubt = list(self._unresolved)
        for txid in in_doubt:
            self._rollback(txid)
            self._resolve(txid)
        self._undo.clear()
        return len(in_doubt)

    def copy_into(self, store: StorageEngine) -> None:
        """Make ``store`` a snapshot of this one at its WAL's tail (a
        rebuild's base image): catalog, commit log and chains copied, row
        images shared, in-flight undo (onto the copied versions) and the
        holdback carried, so replaying the WAL past the tail leaves
        ``store`` equal to this one."""
        memo: dict[RowVersion, RowVersion] = {}
        store.catalog = self.catalog.copy()
        store.clog = self.clog.copy()
        store._tables = {name: heap.copy(memo)
                         for name, heap in self._tables.items()}
        store._undo = {
            txid: [(kind, store._tables[heap.name], memo.get(version),
                    memo.get(old)) for kind, heap, version, old in entries]
            for txid, entries in self._undo.items()}
        store._unresolved = dict.fromkeys(self._unresolved)
        store.max_commit_ts = self.max_commit_ts
        store.applied_lsn = self.wal.last_lsn

    # ------------------------------------------------------------------
    # Vacuum (MVCC garbage collection)
    # ------------------------------------------------------------------
    def vacuum(self, retention_ns: int):
        """Reclaim dead versions older than ``max_commit_ts -
        retention_ns`` and prune the commit log. Returns VacuumStats.

        ``retention_ns`` bounds how far back snapshots remain readable
        (the "snapshot too old" horizon); it must comfortably exceed the
        clock error bound and any replica staleness bound in use. On a
        replica the RCP never exceeds the frontier, and stale routing is
        bounded by the lag guard.
        """
        horizon = self.max_commit_ts - retention_ns
        return vacuum_tables(self._tables, self.clog, horizon)

    # ------------------------------------------------------------------
    # Bulk load (offline data installation, bypassing the redo stream)
    # ------------------------------------------------------------------
    def bulk_load(self, table: str, rows: typing.Iterable[dict],
                  load_ts: int = 1) -> int:
        """Install rows directly as committed at ``load_ts``.

        Used for initial workload loading (the equivalent of restoring a
        base backup before benchmarking); nothing is written to the WAL, so
        replicas must be loaded the same way. Each row dict is adopted as
        the version's image, not copied (:mod:`repro.storage.heap`).
        """
        schema = self.catalog.table(table)
        heap = self.table(table)
        self.clog.ensure(0)
        if self.clog.status(0) is not TxnStatus.COMMITTED:
            self.clog.commit(0, load_ts)
        count = 0
        for row in rows:
            key = schema.key_of(row)
            heap.add_version(RowVersion(key=key, data=row, xmin=0))
            count += 1
        self._note_applied(load_ts)
        return count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, table: str, key: tuple, snapshot: Snapshot) -> dict | None:
        """Visible read that does not wait: the caller has cleared the
        holdback (:meth:`read_waiting`)."""
        return self.table(table).read(key, snapshot, self.clog)

    def scan(self, table: str, snapshot: Snapshot,
             predicate: typing.Callable[[dict], bool] | None = None
             ) -> list[dict]:
        """Every visible row of ``table`` that ``predicate`` keeps: see
        :meth:`HeapTable.scan`."""
        return self.table(table).scan(snapshot, self.clog, predicate)

    def lookup_index(self, table: str, column: str, value: typing.Any,
                     snapshot: Snapshot) -> list[dict]:
        return self.table(table).lookup_index(column, value, snapshot, self.clog)

    def blocking_txid(self, table: str, key: tuple,
                      reader_txid: int | None = None) -> int | None:
        """If ``key``'s visibility could hinge on an unresolved transaction
        other than the reader's own, return that transaction's id."""
        if not self._unresolved:
            return None
        committed = self.clog._commit_ts
        for version in self.table(table).versions(key):
            if version.xmin in self._unresolved and version.xmin != reader_txid:
                return version.xmin
            if (version.xmax is not None and version.xmax in self._unresolved
                    and version.xmax != reader_txid):
                return version.xmax
            if version.xmin in committed:
                break  # chain invariant: all below is committed and ended
        return None

    def read_waiting(self, table: str, key: tuple, snapshot: Snapshot):
        """Generator: read ``key``, waiting out unresolved transactions."""
        while True:
            txid = self.blocking_txid(table, key, snapshot.txid)
            if txid is None:
                return self.read(table, key, snapshot)
            event = self._unresolved[txid]
            if event is None:
                event = self._unresolved[txid] = Event(self.env)
            yield event


StorageEngine._APPLY = {
    RedoInsert: StorageEngine._apply_insert,
    RedoUpdate: StorageEngine._apply_update,
    RedoDelete: StorageEngine._apply_delete,
    RedoPendingCommit: StorageEngine._apply_pending_commit,
    RedoPrepare: StorageEngine._apply_prepare,
    RedoCommit: StorageEngine._apply_commit,
    RedoCommitPrepared: StorageEngine._apply_commit,
    RedoAbort: StorageEngine._apply_abort,
    RedoAbortPrepared: StorageEngine._apply_abort,
    RedoDdl: StorageEngine._apply_ddl,
    RedoHeartbeat: StorageEngine._apply_heartbeat,
}
