"""Data nodes: shard primaries and replicas.

A primary DN owns its shard's :class:`~repro.storage.engine.StorageEngine`
and is the commit point for single-shard transactions (§IV-A ordering:
``PENDING_COMMIT`` -> acquire timestamp -> commit-wait -> ``COMMIT``). A
replica DN owns a :class:`~repro.replication.replica.ReplicaStore` fed by a
:class:`~repro.replication.replayer.Replayer` and serves consistent reads
at the RCP, holding back readers that touch unresolved transactions.

Execution cost model: each operation spends ``CostModel`` CPU time inside a
bounded worker pool (semaphore), giving nodes a realistic saturation point.
Lock waits happen *outside* the pool so a lock convoy cannot deadlock the
executor.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.errors import NetworkError, TransactionAborted, WriteConflict
from repro.replication.quorum import AckTracker, ReplicationPolicy
from repro.replication.replayer import Replayer
from repro.replication.replica import ReplicaStore
from repro.sim.network import Message, Request
from repro.sim.resources import Semaphore
from repro.sim.units import us
from repro.storage.engine import StorageEngine
from repro.storage.snapshot import Snapshot
from repro.txn.modes import TxnMode
from repro.cluster.node import ClusterNode


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs on a data node.

    These are aggregate stand-ins for everything a real op spends CPU on
    (executor, buffer management, WAL insertion, network stack), sized so a
    small simulated cluster saturates at a few thousand TPC-C transactions
    per second — the regime the paper's closed-loop experiments operate in.
    ``fast()`` gives near-zero costs for latency-focused tests.
    """

    point_read_ns: int = us(150)
    write_ns: int = us(200)
    scan_row_ns: int = us(5)
    commit_ns: int = us(200)
    workers: int = 4

    @classmethod
    def fast(cls) -> "CostModel":
        return cls(point_read_ns=us(2), write_ns=us(2), scan_row_ns=0,
                   commit_ns=us(2), workers=64)


class DataNode(ClusterNode):
    """One shard's primary or replica."""

    def __init__(self, *args, shard_id: int = 0, role: str = "primary",
                 cost_model: CostModel | None = None,
                 replication_policy: ReplicationPolicy | None = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.shard_id = shard_id
        self.role = role
        self.cost = cost_model or CostModel()
        self.pool = Semaphore(self.env, self.cost.workers)
        self.replication_policy = replication_policy or ReplicationPolicy.async_()
        if role == "primary":
            self.engine: StorageEngine | None = StorageEngine(self.env, self.name)
            self.acks = AckTracker(self.env, self.region, {})
            self.store: ReplicaStore | None = None
            self.replayer: Replayer | None = None
        else:
            self.engine = None
            self.acks = None
            self.store = ReplicaStore(self.env, self.name)
            self.replayer = Replayer(self.env, self.store)
        self.ops_served = 0
        self.commits = 0
        self.aborts = 0
        # Replica-side redo continuity: highest LSN handed to the
        # replayer, out-of-order batches parked until the gap is filled,
        # and whether a catch-up fetch is in flight.
        self._enqueued_lsn = 0
        self._redo_buffer: dict[int, list] = {}
        self._catchup_inflight = False
        self.catchup_requests = 0
        self.vacuum_runs = 0
        self.versions_vacuumed = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        return self.role == "primary"

    def max_commit_ts(self) -> int:
        if self.is_primary:
            return self.engine.last_commit_ts
        return self.store.max_commit_ts

    def _spawn(self, generator, kind: str) -> None:
        if self.env.metrics_on or self.env.trace_on:
            generator = self._observed(generator, kind)
        self.env.process(generator, name=f"{self.name}:{kind}")

    def _observed(self, generator, kind: str):
        """Delegating wrapper recording a handler's service time. Pure
        ``yield from`` delegation: it adds no events, so wrapping cannot
        change the simulated history."""
        started = self.env.now
        result = yield from generator
        now = self.env.now
        if self.env.metrics_on:
            self.env.metrics.histogram("dn.service_ns", node=self.name,
                                       op=kind).record(now - started)
        if self.env.trace_on:
            self.env.tracer.complete("dn", kind, started, now,
                                     track=self.name)
        return result

    def _work(self, cost_ns: int):
        """Generator: occupy a worker slot for ``cost_ns`` of CPU."""
        yield self.pool.acquire()
        try:
            if cost_ns:
                yield self.env.sleep(cost_ns)
        finally:
            self.pool.release()
        self.ops_served += 1

    def start_vacuum(self, interval_ns: int, retention_ns: int) -> None:
        """Start the background MVCC vacuum loop."""
        def loop():
            while True:
                yield self.env.sleep(interval_ns)
                if self.failed:
                    continue
                if self.is_primary and self.engine is not None:
                    stats = self.engine.vacuum(retention_ns)
                elif self.store is not None:
                    stats = self.store.vacuum(retention_ns)
                else:
                    continue
                self.vacuum_runs += 1
                self.versions_vacuumed += stats.versions_removed

        self.env.process(loop(), name=f"{self.name}:vacuum")

    # ------------------------------------------------------------------
    # Promotion (replica -> primary) after a primary failure
    # ------------------------------------------------------------------
    def promote_to_primary(self) -> int:
        """Turn this replica into the shard's primary (§IV: "a replica
        node is promoted to replace the primary node").

        The applied MVCC state carries over wholesale; a fresh WAL
        continues from the replica's applied LSN so surviving peers (after
        a rebuild to the same point) can keep consuming one dense LSN
        sequence. Transactions that were in doubt at promotion
        (``PENDING_COMMIT``/``PREPARE`` replayed, outcome never arrived)
        are aborted — their coordinator's commit round trip died with the
        old primary. Returns the number of such aborted transactions.
        """
        if self.is_primary:
            raise TransactionAborted(f"{self.name} is already a primary")
        from repro.storage.wal import WalBuffer

        store = self.store
        engine = StorageEngine(self.env, self.name)
        engine.catalog = store.catalog
        engine.clog = store.clog
        engine._tables = store._tables
        engine.last_commit_ts = store.max_commit_ts
        engine.wal = WalBuffer(name=f"{self.name}.wal",
                               start_lsn=store.applied_lsn + 1)
        aborted = 0
        for txid in list(store._unresolved):
            store._undo(txid)
            engine.clog.abort(txid)
            store._resolve(txid)
            aborted += 1
        self.engine = engine
        self.acks = AckTracker(self.env, self.region, {})
        self.store = None
        if self.replayer is not None:
            self.replayer._process.interrupt(cause="promoted")
            self.replayer = None
        self._redo_buffer.clear()
        self._catchup_inflight = False
        self.role = "primary"
        return aborted

    def rebuild_replica_from(self, source: "DataNode") -> None:
        """Re-seed this replica from a (newly promoted) primary's state —
        the simulation-level equivalent of an incremental rebuild.

        The copy is a snapshot: version chains and the commit log are
        duplicated (row payload dicts are immutable after creation and may
        be shared), so subsequent primary activity only reaches this
        replica through shipped redo. The replica's applied LSN is set to
        the base the new primary's WAL grows from, so shipped records
        apply cleanly in one dense sequence.
        """
        if self.is_primary or not source.is_primary:
            raise TransactionAborted(
                "rebuild needs a replica target and a primary source")
        from copy import copy as shallow_copy

        from repro.storage.clog import CommitLog
        from repro.storage.heap import HeapTable, RowVersion

        store = ReplicaStore(self.env, self.name)
        engine = source.engine
        store.catalog = shallow_copy(engine.catalog)
        store.catalog._tables = dict(engine.catalog._tables)
        store.catalog._ddl_ts = dict(engine.catalog._ddl_ts)
        clog = CommitLog()
        clog._records = {txid: shallow_copy(record)
                         for txid, record in engine.clog._records.items()}
        clog.rebuild_cache()
        store.clog = clog
        for name, heap in engine._tables.items():
            clone = HeapTable(name)
            for key, versions in heap._rows.items():
                clone._rows[key] = [
                    RowVersion(key=version.key, data=version.data,
                               xmin=version.xmin, xmax=version.xmax)
                    for version in versions
                ]
            for column in heap._indexes:
                clone.create_index(column)
            store._tables[name] = clone
        store.max_commit_ts = engine.last_commit_ts
        # The snapshot covers everything up to the WAL's current tail.
        store.applied_lsn = engine.wal.last_lsn
        old_replayer = self.replayer
        self.store = store
        if old_replayer is not None:
            old_replayer.store = store
            old_replayer._queue.clear()
        else:
            self.replayer = Replayer(self.env, store)
        self._enqueued_lsn = store.applied_lsn
        self._redo_buffer.clear()
        self._catchup_inflight = False

    # ------------------------------------------------------------------
    # One-way notices: redo batches and acks
    # ------------------------------------------------------------------
    #: Truncate the WAL prefix once this many records are applied
    #: everywhere (amortizes the list surgery and keeps the record pools
    #: warm without truncating on every ack).
    wal_truncate_batch = 1024

    def _on_notice(self, payload: tuple, message: Message) -> None:
        kind = payload[0]
        if kind == "redo_batch" and self.replayer is not None:
            _kind, src, records = payload
            self._receive_redo(src, records)
        elif kind == "redo_ack" and self.acks is not None:
            # Acks carry (replica, received_lsn, applied_lsn); tolerate the
            # legacy 3-tuple without the applied watermark.
            if len(payload) == 4:
                _kind, replica, lsn, applied_lsn = payload
            else:
                _kind, replica, lsn = payload
                applied_lsn = 0
            self.acks.on_ack(replica, lsn, applied_lsn)
            self._maybe_truncate_wal()

    def _maybe_truncate_wal(self) -> None:
        """Recycle the WAL prefix every replica has already applied.

        Safe because catch-up fetches start at the requester's enqueued
        LSN (>= its applied LSN) and in-flight batches only carry records
        above the receiver's applied LSN, so nothing at or below
        ``min_applied_lsn`` can ever be read or referenced again.
        """
        min_applied = self.acks.min_applied_lsn()
        wal = self.engine.wal
        if min_applied - wal.start_lsn + 1 >= self.wal_truncate_batch:
            wal.truncate_below(min_applied + 1)

    # ------------------------------------------------------------------
    # Replica-side redo reception with gap detection
    # ------------------------------------------------------------------
    def _receive_redo(self, src: str, records: list) -> None:
        """Hand a redo batch to the replayer only when it is contiguous
        with everything received so far.

        A replica that was down (or partitioned) misses batches; applying
        past the hole would silently lose transactions and break the RCP's
        consistency guarantee, so out-of-order batches are parked and the
        missing range is fetched from the primary (streaming replication
        catch-up)."""
        if not records:
            return
        if self._enqueued_lsn == 0:
            self._enqueued_lsn = self.store.applied_lsn
        first = records[0].lsn
        if first > self._enqueued_lsn + 1:
            self._redo_buffer[first] = records
            self._request_catchup(src)
            return
        self._enqueue_and_ack(src, records)
        self._flush_buffer(src)

    def _enqueue_and_ack(self, src: str, records: list) -> None:
        fresh = [record for record in records
                 if record.lsn > self._enqueued_lsn]
        if not fresh:
            return
        self.replayer.enqueue(fresh)
        self._enqueued_lsn = fresh[-1].lsn
        # Ack persistence of the contiguous prefix (quorum is on receipt);
        # piggyback the applied watermark so the primary can truncate and
        # recycle the fully-replayed WAL prefix at no extra message cost.
        self.network.send(self.name, src,
                          ("redo_ack", self.name, self._enqueued_lsn,
                           self.store.applied_lsn),
                          size_bytes=64)

    def _flush_buffer(self, src: str) -> None:
        while True:
            ready = [first for first in self._redo_buffer
                     if first <= self._enqueued_lsn + 1]
            if not ready:
                break
            for first in sorted(ready):
                self._enqueue_and_ack(src, self._redo_buffer.pop(first))
        if self._redo_buffer:
            self._request_catchup(src)

    def _request_catchup(self, src: str) -> None:
        if self._catchup_inflight:
            return
        self._catchup_inflight = True
        self.catchup_requests += 1
        request = self.network.request(
            self.name, src, ("fetch_redo", self._enqueued_lsn),
            timeout_ns=self.cost.commit_ns * 10 + 2_000_000_000)

        def on_reply(event) -> None:
            event.defused = True
            self._catchup_inflight = False
            if not event.ok or self.replayer is None:
                return
            records = event.value
            if records:
                self._enqueue_and_ack(src, records)
            self._flush_buffer(src)

        request.add_callback(on_reply)

    def _handle_fetch_redo(self, request: Request) -> None:
        """Primary side of catch-up: stream everything after the
        requester's last contiguous LSN."""
        _kind, from_lsn = request.body
        records = self.engine.wal.records_from(from_lsn)
        request.reply(records, size_bytes=max(128, sum(
            record.wire_bytes for record in records)))

    # ------------------------------------------------------------------
    # Reads (primary)
    # ------------------------------------------------------------------
    def _handle_read(self, request: Request) -> None:
        def run():
            _kind, txid, read_ts, table, key = request.body
            yield from self._work(self.cost.point_read_ns)
            if read_ts is None:
                # §III single-shard bypass: the node's own last committed
                # timestamp is the snapshot — no invocation wait, no RPC.
                read_ts = self.engine.last_commit_ts
            snapshot = Snapshot(read_ts, txid)
            row = yield from self.engine.read_waiting(table, key, snapshot)
            request.reply((row, read_ts))
        self._spawn(run(), "read")

    def _handle_read_for_update(self, request: Request) -> None:
        def run():
            _kind, txid, table, key = request.body
            yield from self._work(self.cost.point_read_ns)
            self._ensure_begun(txid)
            try:
                yield self.engine.locks.acquire(txid, table, key)
            except WriteConflict as exc:
                request.reply(("conflict", str(exc)))
                return
            heap = self.engine.table(table)
            current = self.engine.current_for_write(heap, key, txid)
            request.reply(("ok", dict(current.data) if current else None))
        self._spawn(run(), "read_for_update")

    def _handle_scan(self, request: Request) -> None:
        def run():
            _kind, txid, read_ts, table, predicate = request.body
            if read_ts is None:
                read_ts = self.engine.last_commit_ts
            snapshot = Snapshot(read_ts, txid)
            rows = list(self.engine.scan(table, snapshot, predicate))
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "scan")

    def _handle_lookup_index(self, request: Request) -> None:
        def run():
            _kind, txid, read_ts, table, column, value = request.body
            if read_ts is None:
                read_ts = self.engine.last_commit_ts
            snapshot = Snapshot(read_ts, txid)
            rows = self.engine.lookup_index(table, column, value, snapshot)
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_index")

    def _handle_read_batch(self, request: Request) -> None:
        """Several point reads in one statement (e.g. an IN-list)."""
        def run():
            _kind, txid, read_ts, table, keys = request.body
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * len(keys))
            if read_ts is None:
                read_ts = self.engine.last_commit_ts
            snapshot = Snapshot(read_ts, txid)
            rows = []
            for key in keys:
                row = yield from self.engine.read_waiting(table, key, snapshot)
                rows.append(row)
            request.reply((rows, read_ts))
        self._spawn(run(), "read_batch")

    def _handle_lookup_batch(self, request: Request) -> None:
        """Several index lookups in one statement (e.g. a range over a
        synthesized key column)."""
        def run():
            _kind, txid, read_ts, table, column, values = request.body
            if read_ts is None:
                read_ts = self.engine.last_commit_ts
            snapshot = Snapshot(read_ts, txid)
            rows = []
            for value in values:
                rows.extend(self.engine.lookup_index(table, column, value,
                                                     snapshot))
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * max(len(rows),
                                                                len(values)))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_batch")

    # ------------------------------------------------------------------
    # Writes (primary)
    # ------------------------------------------------------------------
    def _ensure_begun(self, txid: int) -> None:
        if not self.engine.clog.known(txid):
            self.engine.begin(txid)

    def _handle_insert(self, request: Request) -> None:
        def run():
            _kind, txid, table, row = request.body
            yield from self._work(self.cost.write_ns)
            self._ensure_begun(txid)
            try:
                self.engine.insert(txid, table, row)
            except TransactionAborted as exc:  # pragma: no cover - defensive
                request.reply(("conflict", str(exc)))
                return
            except Exception as exc:
                request.reply(("error", exc))
                return
            request.reply(("ok", row))
        self._spawn(run(), "insert")

    def _handle_update(self, request: Request) -> None:
        def run():
            _kind, txid, table, key, changes = request.body
            yield from self._work(self.cost.write_ns)
            self._ensure_begun(txid)
            try:
                yield self.engine.locks.acquire(txid, table, key)
            except WriteConflict as exc:
                request.reply(("conflict", str(exc)))
                return
            resolved = self._resolve_changes(txid, table, key, changes)
            row = self.engine.update(txid, table, key, resolved)
            request.reply(("ok", row))
        self._spawn(run(), "update")

    def _resolve_changes(self, txid: int, table: str, key: tuple,
                         changes: typing.Mapping) -> dict:
        """Evaluate callable change values against the current row —
        modelling SQL's ``SET col = col + 1`` read-modify-write."""
        if not any(callable(value) for value in changes.values()):
            return dict(changes)
        heap = self.engine.table(table)
        current = self.engine.current_for_write(heap, key, txid)
        base = current.data if current is not None else {}
        resolved = {}
        for column, value in changes.items():
            resolved[column] = value(base.get(column)) if callable(value) else value
        return resolved

    def _handle_delete(self, request: Request) -> None:
        def run():
            _kind, txid, table, key = request.body
            yield from self._work(self.cost.write_ns)
            self._ensure_begun(txid)
            try:
                yield self.engine.locks.acquire(txid, table, key)
            except WriteConflict as exc:
                request.reply(("conflict", str(exc)))
                return
            deleted = self.engine.delete(txid, table, key)
            request.reply(("ok", deleted))
        self._spawn(run(), "delete")

    # ------------------------------------------------------------------
    # Commit protocols (primary)
    # ------------------------------------------------------------------
    def _commit_policy(self, txid: int) -> ReplicationPolicy:
        """Per-table sync replication: a commit touching any table marked
        ``sync_replication`` waits for every replica's ack (maximum
        freshness); otherwise the node's configured policy applies."""
        for table in self.engine.tables_written(txid):
            try:
                schema = self.engine.catalog.table(table)
            except Exception:
                continue
            if schema.sync_replication:
                return ReplicationPolicy.quorum(len(self.acks.replica_regions))
        return self.replication_policy

    def _handle_commit_local(self, request: Request) -> None:
        """Single-shard commit: this DN is the commit point."""
        def run():
            _kind, txid, txn_mode = request.body
            yield from self._work(self.cost.commit_ns)
            if not self.engine.clog.known(txid):
                self.engine.begin(txid)  # read-only on this shard: trivial
            policy = self._commit_policy(txid)
            self.engine.log_pending_commit(txid)
            try:
                ts = yield from self.provider.commit_ts(txn_mode, txid=txid)
            except TransactionAborted as exc:
                self.engine.abort(txid)
                self.aborts += 1
                request.reply(("abort", exc.reason))
                return
            lsn = self.engine.commit(txid, ts)
            yield from self._flush_wait(txid, lsn, policy)
            self.commits += 1
            request.reply(("ok", ts))
        self._spawn(run(), "commit_local")

    def _flush_wait(self, txid: int, lsn: int, policy: ReplicationPolicy):
        """Generator: wait for the commit record's replication acks,
        recording the wait as the transaction's WAL-flush phase."""
        started = self.env.now
        yield self.acks.wait_for(lsn, policy)
        now = self.env.now
        if self.env.metrics_on:
            self.env.metrics.histogram("wal.flush_wait_ns",
                                       node=self.name).record(now - started)
        if self.env.trace_on:
            self.env.tracer.complete("wal", "flush", started, now,
                                     track=self.name, txid=txid, lsn=lsn)

    def _handle_prepare(self, request: Request) -> None:
        def run():
            _kind, txid = request.body
            yield from self._work(self.cost.commit_ns)
            self._ensure_begun(txid)
            self.engine.prepare(txid)
            request.reply(("ok",))
        self._spawn(run(), "prepare")

    def _handle_commit_prepared(self, request: Request) -> None:
        def run():
            _kind, txid, ts = request.body
            yield from self._work(self.cost.commit_ns)
            policy = self._commit_policy(txid)
            lsn = self.engine.commit_prepared(txid, ts)
            yield from self._flush_wait(txid, lsn, policy)
            self.commits += 1
            request.reply(("ok", ts))
        self._spawn(run(), "commit_prepared")

    def _handle_abort(self, request: Request) -> None:
        def run():
            _kind, txid = request.body
            yield from self._work(self.cost.commit_ns)
            if self.engine.clog.known(txid) and self.engine.is_active(txid):
                self.engine.abort(txid)
            self.aborts += 1
            request.reply(("ok",))
        self._spawn(run(), "abort")

    def _handle_abort_prepared(self, request: Request) -> None:
        def run():
            _kind, txid = request.body
            yield from self._work(self.cost.commit_ns)
            self.engine.abort_prepared(txid)
            self.aborts += 1
            request.reply(("ok",))
        self._spawn(run(), "abort_prepared")

    # ------------------------------------------------------------------
    # Heartbeats and DDL (primary)
    # ------------------------------------------------------------------
    def _handle_heartbeat(self, request: Request) -> None:
        def run():
            if self.mode is TxnMode.GCLOCK:
                # Safe without commit-wait: a clock lower bound can never
                # exceed a later commit's (waited-out) timestamp.
                earliest, _latest = self.gclock.bounds()
                ts = max(self.engine.last_commit_ts, earliest)
            else:
                # Best-effort: a GTM outage must not kill the heartbeat
                # path (or the node). Without a counter the frontier just
                # doesn't advance past the last commit this round.
                try:
                    counter = yield self.network.request(
                        self.name, self.provider.gtm_name, ("begin",))
                except NetworkError:
                    counter = 0
                ts = max(self.engine.last_commit_ts, counter)
            self.engine.heartbeat(ts)
            request.reply(("ok", ts))
        self._spawn(run(), "heartbeat")

    def _handle_ddl(self, request: Request) -> None:
        def run():
            _kind, action, table, payload, ddl_ts = request.body
            yield from self._work(self.cost.write_ns)
            if action == "create_table":
                self.engine.create_table(payload, ddl_ts=ddl_ts)
            elif action == "drop_table":
                self.engine.drop_table(table, ddl_ts=ddl_ts)
            elif action == "create_index":
                self.engine.create_index(table, payload, ddl_ts=ddl_ts)
            elif action == "drop_index":
                self.engine.drop_index(table, payload, ddl_ts=ddl_ts)
            request.reply(("ok",))
        self._spawn(run(), "ddl")

    # ------------------------------------------------------------------
    # Replica-side requests
    # ------------------------------------------------------------------
    def _handle_read_replica(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, key = request.body
            yield from self._work(self.cost.point_read_ns)
            yield from self.store.wait_frontier(read_ts)
            row = yield from self.store.read_waiting(table, key, Snapshot(read_ts))
            request.reply((row, read_ts))
        self._spawn(run(), "read_replica")

    def _handle_scan_replica(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, predicate = request.body
            yield from self.store.wait_frontier(read_ts)
            rows = self.store.scan(table, Snapshot(read_ts), predicate)
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "scan_replica")

    def _handle_read_replica_batch(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, keys = request.body
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * len(keys))
            yield from self.store.wait_frontier(read_ts)
            snapshot = Snapshot(read_ts)
            rows = []
            for key in keys:
                row = yield from self.store.read_waiting(table, key, snapshot)
                rows.append(row)
            request.reply((rows, read_ts))
        self._spawn(run(), "read_replica_batch")

    def _handle_lookup_replica_batch(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, column, values = request.body
            yield from self.store.wait_frontier(read_ts)
            snapshot = Snapshot(read_ts)
            rows = []
            for value in values:
                rows.extend(self.store.lookup_index(table, column, value,
                                                    snapshot))
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * max(len(rows),
                                                                len(values)))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_replica_batch")

    def _handle_lookup_replica(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, column, value = request.body
            yield from self.store.wait_frontier(read_ts)
            rows = self.store.lookup_index(table, column, value, Snapshot(read_ts))
            yield from self._work(self.cost.point_read_ns
                                  + self.cost.scan_row_ns * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_replica")

    # ------------------------------------------------------------------
    # Shared status surface
    # ------------------------------------------------------------------
    def _handle_max_commit_ts(self, request: Request) -> None:
        request.reply(self.max_commit_ts())

    def _handle_status(self, request: Request) -> None:
        backlog = self.replayer.backlog_batches if self.replayer else 0
        request.reply({
            "name": self.name,
            "region": self.region,
            "role": self.role,
            "shard": self.shard_id,
            "max_commit_ts": self.max_commit_ts(),
            "load": self.pool.load + backlog,
            "up": not self.failed,
        })
