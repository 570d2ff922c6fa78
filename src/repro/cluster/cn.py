"""Computing nodes: query coordination, transactions, and read routing.

The CN is stateless with respect to data (as in GaussDB): it parses and
plans client requests, routes operations to shard primaries, coordinates
one-phase and two-phase commits, and runs read-only queries at a pinned
snapshot — on replicas at the RCP when the cluster has ROR, on primaries
otherwise. Which replica serves a read, and the loops that keep the RCP
and the skyline metrics moving, belong to the CN's ROR control plane,
:class:`repro.ror.control.ControlPlane`, attached as ``cn.ror`` (``None``
without ROR).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import (
    CommitOutcomeUnknown,
    NetworkError,
    ReplicaUnavailableError,
    SqlError,
    TransactionAborted,
    WriteConflict,
)
from repro.ror.rcp import RcpState
from repro.sim.events import settle
from repro.sim.network import Message
from repro.sim.resources import Semaphore
from repro.sim.units import SECOND, us
from repro.storage.catalog import Catalog, TableSchema
from repro.txn.modes import TxnMode
from repro.cluster.node import ClusterNode
from repro.cluster.sharding import ShardMap

if typing.TYPE_CHECKING:
    from repro.ror.control import ControlPlane

#: txid space per CN: cn_index * _TXID_STRIDE + local counter.
_TXID_STRIDE = 1_000_000_000
#: RPC timeout for transactional operations: a dead primary turns into a
#: TransactionAborted instead of a hung client.
OP_TIMEOUT_NS = 2 * SECOND


@dataclass
class TxnContext:
    """State of one client transaction coordinated by this CN."""

    txid: int
    mode: TxnMode
    read_ts: int
    write_shards: set[int] = field(default_factory=set)
    touched_shards: set[int] = field(default_factory=set)
    finished: bool = False
    # Sim times bounding the begin phase, for trace attribution.
    begin_started_at: int = 0
    begin_ended_at: int = 0


@dataclass
class CnConfig:
    """Capacity of a computing node: what one statement costs it, and how
    many statements it runs at once."""

    statement_cost_ns: int = us(60)
    workers: int = 16


class ComputingNode(ClusterNode):
    """A client-facing coordinator node.

    The ``g_*`` generators are zero-copy: a row they return is the stored
    image, shared by the primary, the redo stream and every replica, and
    must not be edited in place (:class:`~repro.cluster.client.Session`
    copies on the way out)."""

    def __init__(self, *args, cn_index: int = 0, shard_map: ShardMap,
                 config: CnConfig | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.cn_index = cn_index
        self.shard_map = shard_map
        self.config = config or CnConfig()
        self.catalog = Catalog()
        self.pool = Semaphore(self.env, self.config.workers)
        self._txid_counter = 0
        # Placement (filled by the builder):
        self.primary_of_shard: dict[int, str] = {}
        self.replicas_of_shard: dict[int, list[str]] = {}
        self.peer_cns: list[str] = []       # all CN names, cluster-wide order
        self.region_cns: list[str] = []     # CN names in this region, ordered
        self.all_replicas: list[str] = []
        self.all_primaries: list[str] = []
        self.rcp_state = RcpState()
        #: The ROR control plane; the builder attaches it on ROR clusters.
        self.ror: ControlPlane | None = None
        # Counters:
        self.txns_committed = 0
        self.txns_aborted = 0
        self.ror_reads = 0
        self.primary_fallback_reads = 0
        self.read_only_queries = 0

    def _on_notice(self, payload: tuple, message: Message) -> None:
        kind = payload[0]
        if kind == "placement_update":
            _kind, shard, new_primary = payload
            self.primary_of_shard[shard] = new_primary
            if self.ror is not None:
                self.ror.invalidate_routes()
        elif kind == "rcp_update":
            self.ror.on_rcp_update(*payload[1:])
        elif kind == "ddl_apply":
            _kind, action, table, ddl_payload, ddl_ts = payload
            self._apply_ddl_locally(action, table, ddl_payload, ddl_ts)

    # ------------------------------------------------------------------
    # Transaction lifecycle (generator API used by workloads & sessions)
    # ------------------------------------------------------------------
    def next_txid(self) -> int:
        self._txid_counter += 1
        return self.cn_index * _TXID_STRIDE + self._txid_counter

    def _statement(self):
        """Generator: per-statement CN admission — a worker slot plus the
        statement's CPU cost (parse/plan/route). This is what makes the CN
        a realistic capacity ceiling under closed-loop load."""
        started = self.env.now
        yield self.pool.acquire()
        try:
            yield self.env.timeout(self.config.statement_cost_ns)
        finally:
            self.pool.release()
            if self.env.metrics_on:
                self.env.metrics.histogram(
                    "cn.statement_ns",
                    node=self.name).record(self.env.now - started)

    def g_begin(self):
        """Generator: begin a read-write transaction."""
        started = self.env.now
        yield from self._statement()
        read_ts, mode = yield from self.provider.begin()
        ctx = TxnContext(txid=self.next_txid(), mode=mode, read_ts=read_ts,
                         begin_started_at=started,
                         begin_ended_at=self.env.now)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete("txn", "begin", started, ctx.begin_ended_at,
                            track=self.name, txid=ctx.txid,
                            mode=str(mode))
        return ctx

    def _op(self, ctx: TxnContext, shard: int, body: tuple):
        """Generator: one transactional RPC to a shard primary. A primary
        that is down at send time, or silent past ``OP_TIMEOUT_NS``,
        aborts the transaction instead of hanging the client."""
        try:
            reply = yield self.network.request(
                self.name, self.primary_of_shard[shard], body,
                timeout_ns=OP_TIMEOUT_NS)
        except NetworkError as exc:
            yield from self.g_abort(ctx)
            raise TransactionAborted(f"shard {shard} unreachable: {exc}")
        return reply

    def _write_op(self, ctx: TxnContext, shard: int, body: tuple):
        """Generator: one row write (or row lock) on a shard primary; a
        write-write conflict aborts the transaction."""
        ctx.touched_shards.add(shard)
        ctx.write_shards.add(shard)
        reply = yield from self._op(ctx, shard, body)
        if reply[0] == "conflict":
            yield from self.g_abort(ctx)
            raise WriteConflict(reply[1])
        return reply[1]

    def _each_primary(self, shards: typing.Iterable[int], body: tuple):
        """Generator: send ``body`` to each shard's primary, in order, and
        return the requests once all have settled (failures included)."""
        requests = [
            self.network.request(self.name, self.primary_of_shard[shard],
                                 body, timeout_ns=OP_TIMEOUT_NS)
            for shard in shards
        ]
        yield settle(self.env, requests)
        return requests

    def _shard_for_key(self, table: str, key: tuple) -> int:
        shard = self.shard_map.shard_for_key(table, key)
        if shard is None:
            # Replicated table: any shard holds it; prefer one whose
            # primary is local.
            for shard_id, primary in self.primary_of_shard.items():
                if self.network.endpoint(primary).region == self.region:
                    return shard_id
            return 0
        return shard

    def _key_shards(self, table: str, key: tuple) -> list[int]:
        """Every shard a write to ``key`` must reach."""
        if self.shard_map.is_replicated(table):
            return self.shard_map.all_shards()
        return [self._shard_for_key(table, key)]

    def _lookup_shard(self, table: str, shard_value) -> int:
        if self.shard_map.is_replicated(table):
            return self._shard_for_key(table, ())
        return self.shard_map.shard_for_value(table, shard_value)

    def g_read(self, ctx: TxnContext, table: str, key: tuple):
        shard = self._shard_for_key(table, key)
        ctx.touched_shards.add(shard)
        row, _ts = yield from self._op(
            ctx, shard, ("read", ctx.txid, ctx.read_ts, table, key))
        return row

    def g_read_for_update(self, ctx: TxnContext, table: str, key: tuple):
        return (yield from self._write_op(
            ctx, self._shard_for_key(table, key),
            ("read_for_update", ctx.txid, table, key)))

    def g_insert(self, ctx: TxnContext, table: str, row: dict):
        shards = self.shard_map.write_shards(table, row)
        ctx.touched_shards.update(shards)
        ctx.write_shards.update(shards)
        requests = yield from self._each_primary(
            shards, ("insert", ctx.txid, table, row))
        for request in requests:
            if not request.ok:
                yield from self.g_abort(ctx)
                raise TransactionAborted(f"insert failed: {request.value}")
            if request.value[0] != "ok":
                yield from self.g_abort(ctx)
                raise TransactionAborted(str(request.value[1]))
        return row

    def g_update(self, ctx: TxnContext, table: str, key: tuple,
                 changes: typing.Mapping):
        results = []
        for shard in self._key_shards(table, key):
            results.append((yield from self._write_op(
                ctx, shard, ("update", ctx.txid, table, key, changes))))
        return results[0]

    def g_delete(self, ctx: TxnContext, table: str, key: tuple):
        deleted = False
        for shard in self._key_shards(table, key):
            found = yield from self._write_op(
                ctx, shard, ("delete", ctx.txid, table, key))
            deleted = deleted or found
        return deleted

    def g_scan(self, ctx: TxnContext, table: str,
               predicate: typing.Callable[[dict], bool] | None = None):
        """Scan across all shards within a transaction."""
        shards = self.shard_map.all_shards()
        ctx.touched_shards.update(shards)
        requests = [
            self.network.request(self.name, self.primary_of_shard[shard],
                                 ("scan", ctx.txid, ctx.read_ts, table, predicate),
                                 timeout_ns=OP_TIMEOUT_NS)
            for shard in shards
        ]
        try:
            yield self.env.all_of(requests)
        except NetworkError as exc:
            yield from self.g_abort(ctx)
            raise TransactionAborted(f"scan of {table} failed: {exc}")
        try:
            return self._merge_rows(
                [request.value for request in requests],
                self.shard_map.is_replicated(table),
                self.shard_map.schema(table))
        except SqlError:
            yield from self.g_abort(ctx)
            raise

    def g_lookup(self, ctx: TxnContext, table: str, column: str,
                 value: typing.Any, shard_value: typing.Any):
        """Secondary-index equality lookup inside a transaction.

        ``shard_value`` is the distribution-column value locating the shard
        (e.g. the warehouse id for TPC-C tables).
        """
        shard = self._lookup_shard(table, shard_value)
        ctx.touched_shards.add(shard)
        rows, _ts = yield from self._op(
            ctx, shard,
            ("lookup_index", ctx.txid, ctx.read_ts, table, column, value))
        return rows

    def g_commit(self, ctx: TxnContext):
        """Generator: commit. One-phase for single-shard writes, 2PC for
        multi-shard. Read-only transactions commit locally for free."""
        if ctx.finished:
            raise TransactionAborted("transaction already finished")
        ctx.finished = True
        commit_started = self.env.now
        tracer = self.env.tracer
        if tracer.enabled:
            # Everything between begin returning and commit being called is
            # the client-visible execute phase.
            tracer.complete("txn", "execute",
                            ctx.begin_ended_at or commit_started,
                            commit_started, track=self.name, txid=ctx.txid)
        yield from self._statement()
        write_shards = sorted(ctx.write_shards)
        if not write_shards:
            self.txns_committed += 1
            self._trace_commit(ctx, commit_started, ctx.read_ts, shards=0)
            return ctx.read_ts
        if len(write_shards) == 1:
            try:
                reply = yield self.network.request(
                    self.name, self.primary_of_shard[write_shards[0]],
                    ("commit_local", ctx.txid, ctx.mode),
                    timeout_ns=OP_TIMEOUT_NS)
            except NetworkError as exc:
                self._note_abort()
                raise CommitOutcomeUnknown(
                    f"commit lost: {exc} (outcome unknown)")
            if reply[0] == "abort":
                self._note_abort()
                raise TransactionAborted(reply[1])
            self.txns_committed += 1
            self._trace_commit(ctx, commit_started, reply[1], shards=1)
            return reply[1]
        return (yield from self._commit_2pc(ctx, write_shards, commit_started))

    def _note_abort(self) -> None:
        self.txns_aborted += 1
        if self.env.series_on:
            self.env.series.counter("cn.aborts", 1, cn=self.name)

    def _trace_commit(self, ctx: TxnContext, started: int, ts: int,
                      shards: int) -> None:
        now = self.env.now
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete("txn", "commit", started, now, track=self.name,
                            txid=ctx.txid, ts=ts, shards=shards)
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.counter("cn.commits", node=self.name).inc()
            metrics.histogram("cn.txn_latency_ns", node=self.name).record(
                now - (ctx.begin_started_at or started))
        if self.env.series_on:
            self.env.series.counter("cn.commits", 1, cn=self.name)

    def _commit_2pc(self, ctx: TxnContext, write_shards: list[int],
                    commit_started: int):
        prepares = yield from self._each_primary(write_shards,
                                                 ("prepare", ctx.txid))
        try:
            if not all(request.ok and request.value[0] == "ok"
                       for request in prepares):
                raise TransactionAborted("2PC prepare failed")
            ts = yield from self.provider.commit_ts(ctx.mode, txid=ctx.txid)
        except TransactionAborted:
            yield from self._each_primary(write_shards,
                                          ("abort_prepared", ctx.txid))
            self._note_abort()
            raise
        yield from self._each_primary(write_shards,
                                      ("commit_prepared", ctx.txid, ts))
        self.txns_committed += 1
        self._trace_commit(ctx, commit_started, ts, shards=len(write_shards))
        return ts

    def g_abort(self, ctx: TxnContext):
        if ctx.finished:
            return
        ctx.finished = True
        self._note_abort()
        if ctx.write_shards:
            # Not through settle([]): an empty settle still schedules.
            yield from self._each_primary(sorted(ctx.write_shards),
                                          ("abort", ctx.txid))

    # ------------------------------------------------------------------
    # Read-only queries (ROR when enabled, primary reads otherwise)
    # ------------------------------------------------------------------
    def _ddl_fence_ok(self, tables: typing.Sequence[str], rcp: int) -> bool:
        """§IV-A DDL rules: RCP must have passed the global max DDL
        timestamp, or failing that, each involved table's DDL timestamp."""
        if rcp > self.catalog.max_ddl_ts:
            return True
        return all(rcp > self.catalog.ddl_ts(table) for table in tables)

    def ro_snapshot(self, tables: typing.Sequence[str], min_read_ts: int = 0):
        """Generator: pin a snapshot for a read-only query.

        Returns ``(read_ts, use_ror)``: with ROR enabled, the DDL fence
        satisfied, and the RCP at or past ``min_read_ts`` (the caller's
        read-your-writes floor, e.g. a session's last commit timestamp),
        the snapshot is the RCP and reads may use replicas; otherwise a
        provider snapshot is taken and reads go to primaries.
        """
        yield from self._statement()
        self.read_only_queries += 1
        if self.ror is not None:
            rcp = self.rcp_state.rcp
            if rcp >= min_read_ts and self._ddl_fence_ok(tables, rcp):
                return rcp, True
        read_ts, _mode = yield from self.provider.begin()
        return read_ts, False

    def _ro_shard_call(self, shard: int, read_ts: int, use_ror: bool,
                       staleness_bound_ns: int | None,
                       replica_body: tuple, primary_body: tuple):
        """Generator: one read-only RPC against the best node for a shard.

        ``replica_body`` / ``primary_body`` are the request payloads for a
        replica and for the primary. On a network failure the node is
        marked down in the metric table and the call retries against the
        primary — the paper's automatic rerouting around failed nodes
        (§IV-B).
        """
        if use_ror:
            node, is_replica = self.ror.choose_read_node(shard, read_ts,
                                                         staleness_bound_ns)
        else:
            node, is_replica = self.primary_of_shard[shard], False
        try:
            reply = yield self.network.request(
                self.name, node, replica_body if is_replica else primary_body,
                timeout_ns=OP_TIMEOUT_NS)
        except NetworkError:
            if self.ror is not None:
                self.ror.mark_down(node)
            primary = self.primary_of_shard[shard]
            if node == primary or not self.network.endpoint(primary).up:
                raise ReplicaUnavailableError(
                    f"no reachable node for shard {shard}")
            self.primary_fallback_reads += 1
            return (yield self.network.request(
                self.name, primary, primary_body, timeout_ns=OP_TIMEOUT_NS))
        if is_replica:
            self.ror_reads += 1
        elif use_ror:
            self.primary_fallback_reads += 1
        return reply

    def _ro_fanout(self, calls):
        """Generator: run several _ro_shard_call generators in parallel
        (each as its own process so per-call rerouting still works)."""
        processes = [self.env.process(call, name=f"{self.name}:ro-fanout")
                     for call in calls]
        yield self.env.all_of(processes)
        return [process.value for process in processes]

    def g_ro_read(self, read_ts: int, use_ror: bool, table: str, key: tuple,
                  staleness_bound_ns: int | None = None):
        """Generator: one row at a pinned read-only snapshot."""
        return (yield from self._ro_shard_call(
            self._shard_for_key(table, key), read_ts, use_ror,
            staleness_bound_ns, ("read_replica", read_ts, table, key),
            ("read", None, read_ts, table, key)))[0]

    def g_ro_lookup(self, read_ts: int, use_ror: bool, table: str,
                    column: str, value: typing.Any, shard_value: typing.Any,
                    staleness_bound_ns: int | None = None):
        """Generator: index lookup at a pinned read-only snapshot."""
        return (yield from self._ro_shard_call(
            self._lookup_shard(table, shard_value), read_ts, use_ror,
            staleness_bound_ns,
            ("lookup_replica", read_ts, table, column, value),
            ("lookup_index", None, read_ts, table, column, value)))[0]

    def g_ro_read_batch(self, read_ts: int, use_ror: bool, table: str,
                        keys: typing.Sequence[tuple],
                        staleness_bound_ns: int | None = None):
        """Generator: several same-shard point reads in one statement."""
        if not keys:
            return []
        key_list = list(keys)
        return (yield from self._ro_shard_call(
            self._shard_for_key(table, keys[0]), read_ts, use_ror,
            staleness_bound_ns,
            ("read_replica_batch", read_ts, table, key_list),
            ("read_batch", None, read_ts, table, key_list)))[0]

    def g_ro_lookup_batch(self, read_ts: int, use_ror: bool, table: str,
                          column: str, values: typing.Sequence,
                          shard_value: typing.Any,
                          staleness_bound_ns: int | None = None):
        """Generator: several same-shard index lookups in one statement."""
        if not values:
            return []
        value_list = list(values)
        return (yield from self._ro_shard_call(
            self._lookup_shard(table, shard_value), read_ts, use_ror,
            staleness_bound_ns,
            ("lookup_replica_batch", read_ts, table, column, value_list),
            ("lookup_batch", None, read_ts, table, column, value_list)))[0]

    def g_read_only(self, table: str, key: tuple,
                    staleness_bound_ns: int | None = None,
                    min_read_ts: int = 0):
        """Generator: a consistent single-row read-only query.

        ``min_read_ts`` is the caller's read-your-writes floor: if the RCP
        has not yet covered it, the read falls back to the primary with a
        fresh provider snapshot.
        """
        read_ts, use_ror = yield from self.ro_snapshot([table], min_read_ts)
        return (yield from self.g_ro_read(read_ts, use_ror, table, key,
                                          staleness_bound_ns))

    def g_read_only_multi(self, table: str, keys: typing.Sequence[tuple],
                          staleness_bound_ns: int | None = None,
                          min_read_ts: int = 0):
        """Generator: a consistent multi-row (multi-shard) read-only query;
        all rows are read at one snapshot."""
        read_ts, use_ror = yield from self.ro_snapshot([table], min_read_ts)
        return (yield from self._ro_fanout([
            self.g_ro_read(read_ts, use_ror, table, key, staleness_bound_ns)
            for key in keys
        ]))

    def g_scan_only(self, table: str,
                    predicate: typing.Callable[[dict], bool] | None = None,
                    staleness_bound_ns: int | None = None,
                    min_read_ts: int = 0):
        """Generator: a consistent read-only scan over every shard."""
        read_ts, use_ror = yield from self.ro_snapshot([table], min_read_ts)
        replicated = self.shard_map.is_replicated(table)
        shards = ([self._shard_for_key(table, ())] if replicated
                  else self.shard_map.all_shards())
        replies = yield from self._ro_fanout([
            self._ro_shard_call(shard, read_ts, use_ror, staleness_bound_ns,
                                ("scan_replica", read_ts, table, predicate),
                                ("scan", None, read_ts, table, predicate))
            for shard in shards
        ])
        return self._merge_rows(replies, replicated and len(replies) > 1,
                                self.shard_map.schema(table))

    @staticmethod
    def _merge_rows(replies, dedupe: bool, schema: TableSchema) -> list[dict]:
        rows: list[dict] = []
        seen: set = set()
        for shard_rows, detail in replies:
            if shard_rows == "error":
                raise SqlError(f"scan of {schema.name} failed: {detail!r}") \
                    from detail
            if dedupe:
                for row in shard_rows:
                    key = schema.key_of(row)
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
            else:
                rows.extend(shard_rows)
        return rows

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def g_create_table(self, schema: TableSchema,
                       range_bounds: list | None = None):
        """Generator: execute CREATE TABLE across the cluster."""
        return (yield from self._ddl("create_table", schema.name, schema,
                                     range_bounds))

    def g_drop_table(self, table: str):
        return (yield from self._ddl("drop_table", table, None))

    def g_create_index(self, table: str, column: str):
        return (yield from self._ddl("create_index", table, column))

    def _ddl(self, action: str, table: str, payload,
             range_bounds: list | None = None):
        """Generator: take a DDL timestamp, apply ``action`` on every
        primary, then on this CN and its peers."""
        ddl_ts = yield from self.provider.commit_ts(self.mode)
        if action == "create_table":
            self.shard_map.register(payload, range_bounds)
        requests = [
            self.network.request(self.name, primary,
                                 ("ddl", action, table, payload, ddl_ts))
            for primary in self.all_primaries
        ]
        yield self.env.all_of(requests)
        if action == "drop_table":
            self.shard_map.unregister(table)
        self._apply_ddl_locally(action, table, payload, ddl_ts)
        self._broadcast_ddl(action, table, payload, ddl_ts)
        return ddl_ts

    def _apply_ddl_locally(self, action: str, table: str, payload, ddl_ts: int) -> None:
        if action == "create_table":
            if not self.catalog.has_table(table):
                self.catalog.create_table(payload, ddl_ts=ddl_ts)
            if payload.name not in self.shard_map._schemas:
                self.shard_map.register(payload)
        elif action == "drop_table":
            if self.catalog.has_table(table):
                self.catalog.drop_table(table, ddl_ts=ddl_ts)
        else:
            self.catalog.record_ddl(table, ddl_ts)

    def _broadcast_ddl(self, action: str, table: str, payload, ddl_ts: int) -> None:
        for peer in self.peer_cns:
            if peer != self.name:
                self.network.send(self.name, peer,
                                  ("ddl_apply", action, table, payload, ddl_ts),
                                  size_bytes=256)
