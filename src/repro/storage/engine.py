"""The per-shard storage engine (primary role).

Combines the MVCC heap, commit log, catalog, lock table and WAL into the
write/read surface a primary data node exposes:

- DML writes create versions immediately and stream matching redo records
  into the WAL (steal-style), so replication lag is governed purely by
  shipping and replay.
- Updates and deletes use read-committed write semantics (as in
  GaussDB/openGauss): after the row lock is granted, the write applies to
  the *latest committed* version, not the transaction's snapshot. This keeps
  TPC-C abort rates realistic for hot rows (district next-order-id). The row
  lock is also what upholds the chain invariant (:mod:`repro.storage.heap`)
  that lets that version be found at the head of the chain, not by scanning
  it; the engine trusts its caller to hold the lock.
- Commit follows the paper's §IV-A ordering: a ``PENDING_COMMIT`` record is
  logged *before* the commit timestamp is obtained, then the ``COMMIT``
  record carries the timestamp. Replicas use the pair to hold back reads on
  in-doubt tuples.
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
    RedoUpdate,
)
from repro.storage.snapshot import Snapshot
from repro.storage.vacuum import vacuum_tables
from repro.storage.wal import WalBuffer


class CommitHoldback:
    """Read holdback on transactions in their commit window, shared by a
    primary's :class:`StorageEngine` and a replica's ``ReplicaStore``.

    A transaction is *unresolved* from its ``PENDING_COMMIT`` or
    ``PREPARE`` until its outcome. Its tuples are effectively locked: a
    reader whose visibility check touches one waits for the outcome. The
    store supplies ``env``, ``clog``, ``table()``, ``read()`` and
    ``_unresolved`` (txid -> the event a blocked reader waits on, made only
    once one blocks).
    """

    _unresolved: dict[int, Event | None]

    def _resolve(self, txid: int) -> None:
        event = self._unresolved.pop(txid, None)
        if event is not None:
            event.succeed(txid)

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


class StorageEngine(CommitHoldback):
    """Storage for one shard's primary."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.catalog = Catalog()
        self.clog = CommitLog()
        self.wal = WalBuffer(name=f"{name}.wal")
        self.locks = LockTable(env)
        self._tables: dict[str, HeapTable] = {}
        # txid -> undo entries, applied in reverse on abort.
        self._undo: dict[int, list[tuple]] = {}
        # Transactions in the commit window (PENDING_COMMIT logged, or
        # prepared) whose outcome a reader may need to wait for. The GClock
        # commit timestamp of such a transaction can land *below* an
        # existing snapshot (within the clock error window), so readers
        # touching its tuples block until it resolves — the primary-side
        # mirror of the replica's PENDING_COMMIT holdback (CommitHoldback).
        self._unresolved: dict[int, Event | None] = {}
        self.last_commit_ts = 0

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
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self, txid: int) -> None:
        self.clog.begin(txid)
        self._undo[txid] = []

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
        self.clog.commit(txid, commit_ts)
        self._undo.pop(txid, None)
        lsn = self.wal.append(RedoCommit(txid=txid, commit_ts=commit_ts))
        self.locks.release_all(txid)
        self._note_commit_ts(commit_ts)
        self._resolve(txid)
        return lsn

    def abort(self, txid: int) -> int:
        """Roll back and log the abort record. Returns its LSN."""
        return self._rollback(txid, RedoAbort(txid=txid))

    def _rollback(self, txid: int, record) -> int:
        """Undo ``txid``'s writes newest first (each removed version is at
        the head of its chain), then log ``record`` as its outcome."""
        for _kind, heap, version, old_version in reversed(self._undo.pop(txid, [])):
            if old_version is not None and old_version.xmax == txid:
                old_version.xmax = None
            if version is not None:
                heap.remove_version(version)
        self.clog.abort(txid)
        lsn = self.wal.append(record)
        self.locks.release_all(txid)
        self._resolve(txid)
        return lsn

    def prepare(self, txid: int) -> int:
        """2PC phase one."""
        self.clog.prepare(txid)
        self._unresolved.setdefault(txid, None)
        return self.wal.append(RedoPrepare(txid=txid))

    def commit_prepared(self, txid: int, commit_ts: int) -> int:
        if self.clog.status(txid) is not TxnStatus.PREPARED:
            raise TransactionError(f"transaction {txid} is not prepared")
        self.clog.commit(txid, commit_ts)
        self._undo.pop(txid, None)
        lsn = self.wal.append(RedoCommitPrepared(txid=txid, commit_ts=commit_ts))
        self.locks.release_all(txid)
        self._note_commit_ts(commit_ts)
        self._resolve(txid)
        return lsn

    def abort_prepared(self, txid: int) -> int:
        if self.clog.status(txid) is not TxnStatus.PREPARED:
            raise TransactionError(f"transaction {txid} is not prepared")
        return self._rollback(txid, RedoAbortPrepared(txid=txid))

    def heartbeat(self, commit_ts: int) -> int:
        """Log a heartbeat so idle replicas keep advancing (§IV-A)."""
        self._note_commit_ts(commit_ts)
        return self.wal.append(RedoHeartbeat(txid=0, commit_ts=commit_ts))

    def _note_commit_ts(self, commit_ts: int) -> None:
        if commit_ts > self.last_commit_ts:
            self.last_commit_ts = commit_ts

    # ------------------------------------------------------------------
    # DML
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
        version = RowVersion(key=key, data=dict(row), xmin=txid)
        heap.add_version(version)
        self._undo[txid].append(("insert", heap, version, None))
        self.wal.append(RedoInsert(txid=txid, table=table, key=key,
                                   row=version.data))

    def update(self, txid: int, table: str, key: tuple,
               changes: typing.Mapping[str, typing.Any]) -> dict | None:
        """Apply ``changes`` to the latest committed version of ``key``.

        The caller must already hold the row lock. Returns the new row, or
        None if the row does not exist (or is deleted).
        """
        heap = self.table(table)
        current = self.current_for_write(heap, key, txid)
        if current is None:
            return None
        new_data = dict(current.data)
        new_data.update(changes)
        current.xmax = txid
        version = RowVersion(key=key, data=new_data, xmin=txid)
        heap.add_version(version)
        self._undo[txid].append(("update", heap, version, current))
        self.wal.append(RedoUpdate(txid=txid, table=table, key=key,
                                   row=new_data))
        return new_data

    def delete(self, txid: int, table: str, key: tuple) -> bool:
        """Delete the latest committed version of ``key``. Caller holds the
        row lock. Returns True if a row was deleted."""
        heap = self.table(table)
        current = self.current_for_write(heap, key, txid)
        if current is None:
            return False
        current.xmax = txid
        self._undo[txid].append(("delete", heap, None, current))
        self.wal.append(RedoDelete(txid=txid, table=table, key=key))
        return True

    def current_for_write(self, heap: HeapTable, key: tuple,
                          txid: int) -> RowVersion | None:
        """The version a write by ``txid`` targets: its own un-ended write,
        else the committed version no committed transaction has ended.

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
            elif (version.xmin in committed and xmax not in committed
                    and self.clog.known(xmax)):
                return version
        return None

    # ------------------------------------------------------------------
    # Vacuum (MVCC garbage collection)
    # ------------------------------------------------------------------
    def vacuum(self, retention_ns: int):
        """Reclaim dead versions older than ``last_commit_ts -
        retention_ns`` and prune the commit log. Returns VacuumStats.

        ``retention_ns`` bounds how far back snapshots remain readable
        (the "snapshot too old" horizon); it must comfortably exceed the
        clock error bound and any replica staleness bound in use.
        """
        horizon = self.last_commit_ts - retention_ns
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
        self._note_commit_ts(load_ts)
        return count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, table: str, key: tuple, snapshot: Snapshot) -> dict | None:
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
