"""Data nodes: shard primaries and replicas.

Every DN holds its shard's :class:`~repro.storage.engine.StorageEngine`
as ``engine``, in one of two roles. A primary is the commit point for
single-shard transactions (§IV-A ordering: ``PENDING_COMMIT`` -> acquire
timestamp -> commit-wait -> ``COMMIT``). A replica's store (a
:class:`~repro.replication.replica.ReplicaStore`) is fed by a
:class:`~repro.replication.replayer.Replayer`; the replica serves
consistent reads at the RCP, holding back readers that touch unresolved
transactions. Promotion keeps the store and flips its role.

Execution cost model: each operation spends a fixed CPU time (the ``*_NS``
constants) inside a bounded worker pool (semaphore), giving nodes a
realistic saturation point.
Lock waits happen *outside* the pool so a lock convoy cannot deadlock the
executor. A request's handler is a generator served by
:meth:`~repro.sim.core.Environment.serve` from the delivery that brought
the request, not a per-request ``Process``: it starts at delivery and
schedules nothing when it returns. Its queue entries are the model's own:
the pool acquire (which queues it behind same-tick work), the CPU-time
timeout, lock and commit-window waits, and the reply message.
"""

from __future__ import annotations

from repro.errors import (
    NetworkError,
    TransactionAborted,
    TransactionError,
    WriteConflict,
)
from repro.replication.quorum import AckTracker, ReplicationPolicy
from repro.replication.replayer import Replayer
from repro.replication.replica import ReplicaStore
from repro.ror.control import HEARTBEAT_INTERVAL_NS
from repro.sim.network import Message, Request
from repro.sim.resources import Semaphore
from repro.sim.units import us
from repro.storage.engine import StorageEngine
from repro.storage.redo import row_changes_only
from repro.storage.snapshot import Snapshot
from repro.txn.modes import TxnMode
from repro.cluster.node import ClusterNode


#: Per-operation CPU costs. These are aggregate stand-ins for everything a
#: real op spends CPU on (executor, buffer management, WAL insertion, network
#: stack), sized so a small simulated cluster saturates at a few thousand
#: TPC-C transactions per second — the regime the paper's closed-loop
#: experiments operate in.
POINT_READ_NS = us(150)
WRITE_NS = us(200)
SCAN_ROW_NS = us(5)
COMMIT_NS = us(200)
#: Size of each node's worker pool.
WORKERS = 4


class DataNode(ClusterNode):
    """One shard's primary or replica."""

    def __init__(self, *args, shard_id: int = 0, role: str = "primary",
                 replication_policy: ReplicationPolicy | None = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.shard_id = shard_id
        self.role = role
        self.pool = Semaphore(self.env, WORKERS)
        self.replication_policy = replication_policy or ReplicationPolicy.async_()
        if role == "primary":
            self.engine: StorageEngine = StorageEngine(self.env, self.name)
            self.acks: AckTracker | None = AckTracker(self.env, self.region, {})
            self.replayer: Replayer | None = None
        else:
            self.engine = ReplicaStore(self.env, self.name)
            self.acks = None
            self.replayer = Replayer(self.env, self.engine)
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

    def _spawn(self, generator, kind: str) -> None:
        """Serve one request's or notice's handler generator. Every caller
        runs from ``Network._deliver`` and spawns last, which is
        :meth:`Environment.serve`'s precondition."""
        if self.env.metrics_on or self.env.trace_on:
            generator = self._observed(generator, kind)
        self.env.serve(generator)

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
                yield self.env.timeout(cost_ns)
        finally:
            self.pool.release()
        self.ops_served += 1

    def start_vacuum(self, interval_ns: int, retention_ns: int) -> None:
        """Start the background MVCC vacuum loop."""
        def loop():
            while True:
                yield self.env.timeout(interval_ns)
                if self.failed:
                    continue
                stats = self.engine.vacuum(retention_ns)
                self.vacuum_runs += 1
                self.versions_vacuumed += stats.versions_removed

        self.env.process(loop(), name=f"{self.name}:vacuum")

    # ------------------------------------------------------------------
    # Promotion (replica -> primary) after a primary failure
    # ------------------------------------------------------------------
    def promote_to_primary(self) -> int:
        """Turn this replica into the shard's primary (§IV: "a replica
        node is promoted to replace the primary node").

        The store the replayer was applying into takes the primary role in
        place (:meth:`StorageEngine.promote`) and the replayer stops. The
        store continues the WAL from the applied LSN, so surviving peers
        (after a rebuild to the same point) keep consuming one dense LSN
        sequence, and aborts the transactions that were in doubt — their
        coordinator's commit round trip died with the old primary. Returns
        how many it aborted.
        """
        if self.is_primary:
            raise TransactionAborted(f"{self.name} is already a primary")
        aborted = self.engine.promote()
        self.acks = AckTracker(self.env, self.region, {})
        self.replayer._process.interrupt(cause="promoted")
        self.replayer = None
        self._redo_buffer.clear()
        self._catchup_inflight = False
        self.role = "primary"
        return aborted

    def rebuild_replica_from(self, source: "DataNode") -> None:
        """Re-seed this replica from a (newly promoted) primary's state —
        the simulation-level equivalent of an incremental rebuild.

        The new store is a snapshot of the source's
        (:meth:`StorageEngine.copy_into`), so subsequent primary activity
        only reaches this replica through shipped redo, applied from the
        source WAL's tail on.
        """
        if self.is_primary or not source.is_primary:
            raise TransactionAborted(
                "rebuild needs a replica target and a primary source")
        store = ReplicaStore(self.env, self.name)
        source.engine.copy_into(store)
        self.engine = self.replayer.store = store
        self.replayer.clear()
        self._enqueued_lsn = store.applied_lsn
        self._redo_buffer.clear()
        self._catchup_inflight = False

    # ------------------------------------------------------------------
    # One-way notices: redo batches, acks and probe-round heartbeats
    # ------------------------------------------------------------------
    #: Truncate the WAL prefix once this many records are applied
    #: everywhere (amortizes the list surgery instead of truncating on
    #: every ack).
    wal_truncate_batch = 1024

    def _on_notice(self, payload: tuple, message: Message) -> None:
        kind = payload[0]
        if kind == "redo_batch" and self.replayer is not None:
            _kind, src, records = payload
            self._receive_redo(src, records)
        elif kind == "redo_ack" and self.acks is not None:
            _kind, replica, lsn, applied_lsn = payload
            self.acks.record(replica, lsn, applied_lsn)
            self._maybe_truncate_wal()
            self.acks.release()
        elif kind == "heartbeat" and self.is_primary:
            # A CN's probe round: answer with this node's status, and log
            # a heartbeat record if a collector asks and the frontier has
            # been quiet for an interval.
            _kind, sent_at, from_collector = payload
            self.network.send(self.name, message.src,
                              ("status", sent_at, self._status()))
            if from_collector and (self.env.now - self.engine.frontier_moved_at
                                   >= HEARTBEAT_INTERVAL_NS):
                self._spawn(self._heartbeat(), "heartbeat")

    def _maybe_truncate_wal(self) -> None:
        """Drop the WAL prefix every replica has already applied.

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
            self._enqueued_lsn = self.engine.applied_lsn
        first = records[0].lsn
        if first > self._enqueued_lsn + 1:
            self._redo_buffer[first] = records
            self._request_catchup(src)
            return
        self._accept(src, records)

    def _accept(self, src: str, records: list) -> None:
        """Ack ``records`` and every parked batch they make contiguous,
        then hand them all to the replayer as the entry's last action
        (``Replayer.enqueue`` may resume it in place)."""
        batches: list[list] = []
        self._ack(src, records, batches)
        while True:
            ready = [first for first in self._redo_buffer
                     if first <= self._enqueued_lsn + 1]
            if not ready:
                break
            for first in sorted(ready):
                self._ack(src, self._redo_buffer.pop(first), batches)
        if self._redo_buffer:
            self._request_catchup(src)
        self.replayer.enqueue(*batches)

    def _ack(self, src: str, records: list, batches: list) -> None:
        """Ack the records of a contiguous batch that are new, and add them
        to ``batches`` for the replayer."""
        fresh = [record for record in records
                 if record.lsn > self._enqueued_lsn]
        if not fresh:
            return
        batches.append(fresh)
        self._enqueued_lsn = fresh[-1].lsn
        # Ack persistence of the contiguous prefix (quorum is on receipt),
        # but only for a batch someone waits on: a commit waits on its
        # outcome record's LSN, so a batch of row changes only goes
        # unacked, and the next ack covers it. Piggyback the applied
        # watermark so the primary can truncate the fully-replayed WAL
        # prefix at no extra message cost.
        if row_changes_only(fresh):
            return
        self.network.send(self.name, src,
                          ("redo_ack", self.name, self._enqueued_lsn,
                           self.engine.applied_lsn),
                          size_bytes=64)

    def _request_catchup(self, src: str) -> None:
        if self._catchup_inflight:
            return
        self._catchup_inflight = True
        self.catchup_requests += 1
        request = self.network.request(
            self.name, src, ("fetch_redo", self._enqueued_lsn),
            timeout_ns=COMMIT_NS * 10 + 2_000_000_000)

        def on_reply(event) -> None:
            event.defused = True
            self._catchup_inflight = False
            if not event.ok or self.replayer is None:
                return
            self._accept(src, event.value)

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
            yield from self._work(POINT_READ_NS)
            if read_ts is None:
                # §III single-shard bypass: the node's own last committed
                # timestamp is the snapshot — no invocation wait, no RPC.
                read_ts = self.engine.max_commit_ts
            snapshot = Snapshot(read_ts, txid)
            row = yield from self.engine.read_waiting(table, key, snapshot)
            request.reply((row, read_ts))
        self._spawn(run(), "read")

    def _handle_read_for_update(self, request: Request) -> None:
        def run():
            _kind, txid, table, key = request.body
            yield from self._work(POINT_READ_NS)
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
                read_ts = self.engine.max_commit_ts
            snapshot = Snapshot(read_ts, txid)
            try:
                rows = self.engine.scan(table, snapshot, predicate)
            except Exception as exc:
                # A predicate that raises (``name < 5`` on a text column)
                # fails the statement, not the node: reply with the error.
                request.reply(("error", exc))
                return
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "scan")

    def _handle_lookup_index(self, request: Request) -> None:
        def run():
            _kind, txid, read_ts, table, column, value = request.body
            if read_ts is None:
                read_ts = self.engine.max_commit_ts
            snapshot = Snapshot(read_ts, txid)
            rows = self.engine.lookup_index(table, column, value, snapshot)
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_index")

    def _handle_read_batch(self, request: Request) -> None:
        """Several point reads in one statement (e.g. an IN-list)."""
        def run():
            _kind, txid, read_ts, table, keys = request.body
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * len(keys))
            if read_ts is None:
                read_ts = self.engine.max_commit_ts
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
                read_ts = self.engine.max_commit_ts
            snapshot = Snapshot(read_ts, txid)
            rows = []
            for value in values:
                rows.extend(self.engine.lookup_index(table, column, value,
                                                     snapshot))
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * max(len(rows),
                                                                len(values)))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_batch")

    # ------------------------------------------------------------------
    # Writes (primary)
    # ------------------------------------------------------------------
    def _ensure_begun(self, txid: int) -> None:
        self.engine.clog.ensure(txid)

    def _handle_insert(self, request: Request) -> None:
        def run():
            _kind, txid, table, row = request.body
            yield from self._work(WRITE_NS)
            self._ensure_begun(txid)
            try:
                self.engine.insert(txid, table, row)
            except Exception as exc:
                request.reply(("error", exc))
                return
            request.reply(("ok", row))
        self._spawn(run(), "insert")

    def _handle_update(self, request: Request) -> None:
        def run():
            _kind, txid, table, key, changes = request.body
            yield from self._work(WRITE_NS)
            self._ensure_begun(txid)
            try:
                yield self.engine.locks.acquire(txid, table, key)
            except WriteConflict as exc:
                request.reply(("conflict", str(exc)))
                return
            try:
                row = self.engine.update(txid, table, key, changes)
            except Exception as exc:
                # A SET value that raises (``v / 0``) fails the statement,
                # not the node; the caller aborts, which frees the lock.
                request.reply(("error", exc))
                return
            request.reply(("ok", row))
        self._spawn(run(), "update")

    def _handle_delete(self, request: Request) -> None:
        def run():
            _kind, txid, table, key = request.body
            yield from self._work(WRITE_NS)
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
            yield from self._work(COMMIT_NS)
            self._ensure_begun(txid)  # read-only on this shard: trivial
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
            yield from self._work(COMMIT_NS)
            self._ensure_begun(txid)
            self.engine.prepare(txid)
            request.reply(("ok",))
        self._spawn(run(), "prepare")

    def _handle_commit_prepared(self, request: Request) -> None:
        def run():
            _kind, txid, ts = request.body
            yield from self._work(COMMIT_NS)
            policy = self._commit_policy(txid)
            try:
                lsn = self.engine.commit_prepared(txid, ts)
            except TransactionError as exc:
                # Unknown or vacuumed txid, the other outcome or another
                # timestamp: the coordinator hears why, and nothing is logged.
                request.reply(("error", exc))
                return
            if lsn is None:
                # A repeat: everything logged so far covers the first
                # one's record, so it never answers before the first could.
                yield from self._flush_wait(txid, self.engine.wal.last_lsn,
                                            policy)
            else:
                yield from self._flush_wait(txid, lsn, policy)
                self.commits += 1
            request.reply(("ok", ts))
        self._spawn(run(), "commit_prepared")

    def _handle_abort(self, request: Request) -> None:
        def run():
            _kind, txid = request.body
            yield from self._work(COMMIT_NS)
            if self.engine.is_active(txid):
                self.engine.abort(txid)
            self.aborts += 1
            request.reply(("ok",))
        self._spawn(run(), "abort")

    def _handle_abort_prepared(self, request: Request) -> None:
        def run():
            _kind, txid = request.body
            yield from self._work(COMMIT_NS)
            try:
                lsn = self.engine.abort_prepared(txid)
            except TransactionError as exc:
                request.reply(("error", exc))
                return
            if lsn is not None:
                self.aborts += 1
            request.reply(("ok",))
        self._spawn(run(), "abort_prepared")

    # ------------------------------------------------------------------
    # Heartbeats and DDL (primary)
    # ------------------------------------------------------------------
    def _heartbeat(self):
        """Generator: log a heartbeat record so idle replicas, and the RCP
        with them, keep advancing (§IV-A). A notice starts it only on a
        quiet primary: a busy one's commits move its replicas already."""
        if self.mode is TxnMode.GCLOCK:
            # Safe without commit-wait: a clock lower bound can never
            # exceed a later commit's (waited-out) timestamp.
            ts, _latest = self.gclock.bounds()
        else:
            # Best-effort: a GTM outage must not kill the heartbeat
            # path (or the node). Without a counter the frontier just
            # doesn't advance past the last commit this round.
            try:
                ts = yield self.network.request(
                    self.name, self.provider.gtm_name, ("begin",))
            except NetworkError:
                ts = 0
        self.engine.heartbeat(max(self.engine.max_commit_ts, ts))

    def _handle_ddl(self, request: Request) -> None:
        def run():
            _kind, action, table, payload, ddl_ts = request.body
            yield from self._work(WRITE_NS)
            if action == "create_table":
                self.engine.create_table(payload, ddl_ts=ddl_ts)
            elif action == "drop_table":
                self.engine.drop_table(table, ddl_ts=ddl_ts)
            elif action == "create_index":
                self.engine.create_index(table, payload, ddl_ts=ddl_ts)
            request.reply(("ok",))
        self._spawn(run(), "ddl")

    # ------------------------------------------------------------------
    # Replica-side requests
    # ------------------------------------------------------------------
    def _handle_read_replica(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, key = request.body
            yield from self._work(POINT_READ_NS)
            yield from self.engine.wait_frontier(read_ts)
            row = yield from self.engine.read_waiting(table, key, Snapshot(read_ts))
            request.reply((row, read_ts))
        self._spawn(run(), "read_replica")

    def _handle_scan_replica(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, predicate = request.body
            yield from self.engine.wait_frontier(read_ts)
            try:
                rows = self.engine.scan(table, Snapshot(read_ts), predicate)
            except Exception as exc:
                request.reply(("error", exc))
                return
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "scan_replica")

    def _handle_read_replica_batch(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, keys = request.body
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * len(keys))
            yield from self.engine.wait_frontier(read_ts)
            snapshot = Snapshot(read_ts)
            rows = []
            for key in keys:
                row = yield from self.engine.read_waiting(table, key, snapshot)
                rows.append(row)
            request.reply((rows, read_ts))
        self._spawn(run(), "read_replica_batch")

    def _handle_lookup_replica_batch(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, column, values = request.body
            yield from self.engine.wait_frontier(read_ts)
            snapshot = Snapshot(read_ts)
            rows = []
            for value in values:
                rows.extend(self.engine.lookup_index(table, column, value,
                                                    snapshot))
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * max(len(rows),
                                                                len(values)))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_replica_batch")

    def _handle_lookup_replica(self, request: Request) -> None:
        def run():
            _kind, read_ts, table, column, value = request.body
            yield from self.engine.wait_frontier(read_ts)
            rows = self.engine.lookup_index(table, column, value, Snapshot(read_ts))
            yield from self._work(POINT_READ_NS
                                  + SCAN_ROW_NS * len(rows))
            request.reply((rows, read_ts))
        self._spawn(run(), "lookup_replica")

    # ------------------------------------------------------------------
    # Shared status surface
    # ------------------------------------------------------------------
    def _status(self) -> dict:
        backlog = self.replayer.backlog_batches if self.replayer else 0
        return {
            "name": self.name,
            "region": self.region,
            "role": self.role,
            "shard": self.shard_id,
            "max_commit_ts": self.engine.max_commit_ts,
            "load": self.pool.load + backlog,
            "up": not self.failed,
        }

    def _handle_status(self, request: Request) -> None:
        request.reply(self._status())
