"""Computing nodes: query coordination, transactions, and ROR routing.

The CN is stateless with respect to data (as in GaussDB): it parses and
plans client requests, routes operations to shard primaries, coordinates
one-phase and two-phase commits, and — when ROR is enabled — routes
read-only queries to replicas chosen by the skyline at a snapshot pinned to
the RCP.

Background loops hosted here — the ROR control plane (§IV-A/B). Their
only readers are ``ro_snapshot`` and ``_choose_read_node``, so a CN built
with ``ror_enabled=False`` (the paper's baseline) starts none of them and
its cluster carries no ``status`` / ``max_commit_ts`` / ``heartbeat``
traffic, no heartbeat-driven GTM requests and no heartbeat redo records:

- **metrics refresh** — polls every data node's status to feed the skyline;
- **RCP collection** — when this CN holds the collector role for its
  region, polls replica frontiers, computes the RCP, and distributes it;
  every CN watches the collector and takes over if updates stop (§IV-A);
- **heartbeats** — the collector CN periodically asks primaries to log
  heartbeat records so idle replicas keep advancing.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, field

from repro.errors import (
    CommitOutcomeUnknown,
    NetworkError,
    ReplicaUnavailableError,
    SqlError,
    StalenessBoundError,
    TransactionAborted,
    WriteConflict,
)
from repro.ror.rcp import RcpCollector, RcpState
from repro.ror.skyline import NodeMetrics, near_pool, skyline_summary
from repro.ror.staleness import StalenessEstimator
from repro.sim.events import settle
from repro.sim.network import Message
from repro.sim.resources import Semaphore
from repro.sim.units import SECOND, ms, us
from repro.storage.catalog import Catalog, TableSchema
from repro.txn.modes import TxnMode
from repro.cluster.node import ClusterNode
from repro.cluster.sharding import ShardMap

#: txid space per CN: cn_index * _TXID_STRIDE + local counter.
_TXID_STRIDE = 1_000_000_000


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
    """Behavioural knobs for a computing node."""

    ror_enabled: bool = True
    metrics_interval_ns: int = ms(25)
    rcp_poll_interval_ns: int = ms(5)
    heartbeat_interval_ns: int = ms(5)
    collector_timeout_ns: int = ms(100)
    statement_cost_ns: int = us(60)
    workers: int = 16
    default_staleness_bound_ns: int | None = None  # None: any staleness
    #: RPC timeout for transactional operations: a dead primary turns
    #: into a TransactionAborted instead of a hung client.
    op_timeout_ns: int = 2 * SECOND
    #: Replicas whose last-known frontier trails the RCP by more than this
    #: are not routed to (a known laggard would park readers in its
    #: safe-time wait). Small lags are fine: metrics refresh less often
    #: than the RCP moves, and the replica-side wait covers the race.
    replica_lag_guard_ns: int = ms(250)


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
        self._route_rng = random.Random((cn_index + 1) * 7919)
        # Placement (filled by the builder):
        self.primary_of_shard: dict[int, str] = {}
        self.replicas_of_shard: dict[int, list[str]] = {}
        self.peer_cns: list[str] = []       # all CN names, cluster-wide order
        self.region_cns: list[str] = []     # CN names in this region, ordered
        self.all_replicas: list[str] = []
        self.all_primaries: list[str] = []
        # ROR state:
        self.rcp_state = RcpState()
        self.metrics: dict[str, NodeMetrics] = {}
        # (shard, staleness_bound, min_commit_ts) -> skyline near-pool,
        # invalidated on every metrics/placement change.
        self._route_cache: dict[tuple, list[NodeMetrics]] = {}
        self.staleness = StalenessEstimator(self.env, self.gclock,
                                            name=self.name)
        self._collector: RcpCollector | None = None
        self.is_collector = False
        # Counters:
        self.txns_committed = 0
        self.txns_aborted = 0
        self.ror_reads = 0
        self.primary_fallback_reads = 0
        self.read_only_queries = 0

    # ------------------------------------------------------------------
    # Wiring & background loops (called by the builder)
    # ------------------------------------------------------------------
    def start_background(self, initial_collector: bool) -> None:
        """Start the ROR control plane. Everything it maintains (skyline
        metrics, the RCP, replica frontiers kept moving by heartbeats) is
        read only by ROR queries, so without ROR nothing is started."""
        if not self.config.ror_enabled:
            return
        self.is_collector = initial_collector
        self._collector = RcpCollector(
            self.env, self.network, self.name,
            replica_names=self.all_replicas,
            peer_cn_names=[cn for cn in self.region_cns if cn != self.name],
            poll_interval_ns=self.config.rcp_poll_interval_ns)
        self.env.process(self._metrics_loop(), name=f"{self.name}:metrics")
        self.env.process(self._rcp_loop(), name=f"{self.name}:rcp")
        self.env.process(self._heartbeat_loop(), name=f"{self.name}:heartbeat")

    def _metrics_loop(self):
        while True:
            if not self.failed:
                self._refresh_metrics()
            yield self.env.timeout(self.config.metrics_interval_ns)

    def _refresh_metrics(self) -> None:
        """Fire one status probe per data node; replies update the metric
        table as they arrive (remote nodes answer after a WAN round trip,
        so the loop must not block on the farthest node)."""
        sent_at = self.env.now
        for name in self.all_replicas + self.all_primaries:
            request = self.network.request(
                self.name, name, ("status",),
                timeout_ns=self.config.metrics_interval_ns * 10)
            request.add_callback(
                lambda event, name=name, sent_at=sent_at:
                self._on_status_reply(name, sent_at, event))

    def _on_status_reply(self, name: str, sent_at: int, event) -> None:
        event.defused = True
        self.invalidate_routes()
        if not event.ok:
            existing = self.metrics.get(name)
            if existing is not None:
                existing.up = False
            if self.env.series_on:
                self._record_route_series(name)
            return
        status = event.value
        self.staleness.observe_frontier(status["max_commit_ts"])
        latency = (self.env.now - sent_at) // 2  # one-way estimate
        staleness_ns = self.staleness.estimate_ns(
            self.mode, status["max_commit_ts"])
        self.metrics[name] = NodeMetrics(
            name=name,
            staleness_ns=staleness_ns,
            latency_ns=latency + round(status["load"] * us(50)),
            max_commit_ts=status["max_commit_ts"],
            load=status["load"],
            up=status["up"],
            is_primary=(status["role"] == "primary"),
        )
        if status["role"] != "primary" and self.env.metrics_on:
            # Replica lag as this CN estimates it (the skyline's input).
            self.env.metrics.set_gauge("ror.staleness_ns", staleness_ns,
                                       node=name)
        if self.env.series_on:
            if status["role"] != "primary":
                self.env.series.gauge("ror.staleness_ns", staleness_ns,
                                      node=name)
            self._record_route_series(name)

    def _record_route_series(self, name: str) -> None:
        """Telemetry snapshot of this CN's routing view after a status
        update for ``name`` (only called under ``env.series_on``)."""
        series = self.env.series
        node = self.metrics.get(name)
        if node is not None:
            series.gauge("cluster.node_up", 1 if node.up else 0, node=name)
        for shard, replica_names in self.replicas_of_shard.items():
            if name in replica_names:
                # Only report once every replica of the shard has checked
                # in at least once: an unknown replica is not a lost one,
                # and reporting early would false-alarm the quorum monitor
                # during the first status round-trips.
                statuses = [self.metrics.get(replica)
                            for replica in replica_names]
                if all(status is not None for status in statuses):
                    up = sum(1 for status in statuses if status.up)
                    series.gauge("cluster.shard_replicas_up", up,
                                 shard=f"s{shard}", cn=self.name)
                break
        summary = skyline_summary(self.metrics.values())
        series.gauge("ror.skyline_size", summary["skyline"], cn=self.name)
        series.gauge("ror.freshest_staleness_ns",
                     summary["freshest_staleness_ns"], cn=self.name)
        series.gauge("ror.stalest_staleness_ns",
                     summary["stalest_staleness_ns"], cn=self.name)

    def _rcp_loop(self):
        while True:
            if not self.failed:
                if self.is_collector:
                    yield from self._collector.poll(self._on_rcp_computed)
                else:
                    self._maybe_take_over()
            yield self.env.timeout(self.config.rcp_poll_interval_ns)

    def _on_rcp_computed(self, rcp: int) -> None:
        self._note_rcp_update()
        self.rcp_state.update(rcp, self.env.now, self.name)

    def _note_rcp_update(self) -> None:
        """Record how stale this CN's RCP view got before the update."""
        metrics = self.env.metrics
        if metrics.enabled and self.rcp_state.updates_received:
            metrics.histogram("ror.rcp_age_ns", cn=self.name).record(
                self.rcp_state.age_ns(self.env.now))

    def _maybe_take_over(self) -> None:
        """Collector failover: if RCP updates stopped and this CN is the
        first live CN in its region's order, it takes the role (§IV-A)."""
        age = self.rcp_state.age_ns(self.env.now)
        if age < self.config.collector_timeout_ns:
            return
        for name in self.region_cns:
            if name == self.name:
                self.is_collector = True
                return
            peer = self.network.endpoint(name)
            if peer.up:
                return  # an earlier CN is alive; it should take over

    def _heartbeat_loop(self):
        while True:
            if not self.failed and self.is_collector:
                requests = [
                    self.network.request(self.name, primary, ("heartbeat",),
                                         timeout_ns=self.config.heartbeat_interval_ns * 4)
                    for primary in self.all_primaries
                ]
                yield settle(self.env, requests)
            yield self.env.timeout(self.config.heartbeat_interval_ns)

    def _on_notice(self, payload: tuple, message: Message) -> None:
        kind = payload[0]
        if kind == "placement_update":
            _kind, shard, new_primary = payload
            self.primary_of_shard[shard] = new_primary
            self.invalidate_routes()
        elif kind == "rcp_update":
            _kind, rcp, collector = payload
            self._note_rcp_update()
            self.rcp_state.update(rcp, self.env.now, collector)
            if collector != self.name:
                self.is_collector = False
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
            if self.config.statement_cost_ns:
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

    def _primary(self, shard: int) -> str:
        return self.primary_of_shard[shard]

    def _op(self, ctx: TxnContext, shard: int, body: tuple):
        """Generator: one transactional RPC to a shard primary, with a
        timeout so a dead primary aborts the transaction instead of
        hanging the client."""
        try:
            reply = yield self.network.request(
                self.name, self._primary(shard), body,
                timeout_ns=self.config.op_timeout_ns)
        except NetworkError as exc:
            yield from self.g_abort(ctx)
            raise TransactionAborted(f"shard {shard} unreachable: {exc}")
        return reply

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

    def g_read(self, ctx: TxnContext, table: str, key: tuple):
        shard = self._shard_for_key(table, key)
        ctx.touched_shards.add(shard)
        reply = yield from self._op(ctx, shard,
                                    ("read", ctx.txid, ctx.read_ts, table, key))
        row, _ts = reply
        return row

    def g_read_for_update(self, ctx: TxnContext, table: str, key: tuple):
        shard = self._shard_for_key(table, key)
        ctx.touched_shards.add(shard)
        ctx.write_shards.add(shard)
        reply = yield from self._op(ctx, shard,
                                    ("read_for_update", ctx.txid, table, key))
        if reply[0] == "conflict":
            yield from self.g_abort(ctx)
            raise WriteConflict(reply[1])
        return reply[1]

    def g_insert(self, ctx: TxnContext, table: str, row: dict):
        shards = self.shard_map.write_shards(table, row)
        for shard in shards:
            ctx.touched_shards.add(shard)
            ctx.write_shards.add(shard)
        requests = [
            self.network.request(self.name, self._primary(shard),
                                 ("insert", ctx.txid, table, row),
                                 timeout_ns=self.config.op_timeout_ns)
            for shard in shards
        ]
        yield settle(self.env, requests)
        for request in requests:
            if not request.ok:
                yield from self.g_abort(ctx)
                raise TransactionAborted(f"insert failed: {request.value}")
            reply = request.value
            if reply[0] != "ok":
                yield from self.g_abort(ctx)
                error = reply[1]
                if isinstance(error, Exception):
                    raise TransactionAborted(str(error))
                raise TransactionAborted(str(error))
        return row

    def g_update(self, ctx: TxnContext, table: str, key: tuple,
                 changes: typing.Mapping):
        if self.shard_map.is_replicated(table):
            shards = self.shard_map.all_shards()
        else:
            shards = [self._shard_for_key(table, key)]
        results = []
        for shard in shards:
            ctx.touched_shards.add(shard)
            ctx.write_shards.add(shard)
            reply = yield from self._op(ctx, shard,
                                        ("update", ctx.txid, table, key,
                                         changes))
            if reply[0] == "conflict":
                yield from self.g_abort(ctx)
                raise WriteConflict(reply[1])
            results.append(reply[1])
        return results[0]

    def g_delete(self, ctx: TxnContext, table: str, key: tuple):
        if self.shard_map.is_replicated(table):
            shards = self.shard_map.all_shards()
        else:
            shards = [self._shard_for_key(table, key)]
        deleted = False
        for shard in shards:
            ctx.touched_shards.add(shard)
            ctx.write_shards.add(shard)
            reply = yield from self._op(ctx, shard,
                                        ("delete", ctx.txid, table, key))
            if reply[0] == "conflict":
                yield from self.g_abort(ctx)
                raise WriteConflict(reply[1])
            deleted = deleted or reply[1]
        return deleted

    def g_scan(self, ctx: TxnContext, table: str,
               predicate: typing.Callable[[dict], bool] | None = None):
        """Scan across all shards within a transaction."""
        shards = self.shard_map.all_shards()
        ctx.touched_shards.update(shards)
        requests = [
            self.network.request(self.name, self._primary(shard),
                                 ("scan", ctx.txid, ctx.read_ts, table, predicate))
            for shard in shards
        ]
        yield self.env.all_of(requests)
        rows: list[dict] = []
        seen_keys: set = set()
        replicated = self.shard_map.is_replicated(table)
        schema = self.shard_map.schema(table)
        for request in requests:
            shard_rows, detail = request.value
            if shard_rows == "error":
                yield from self.g_abort(ctx)
                raise SqlError(f"scan of {table} failed: {detail!r}") \
                    from detail
            if replicated:
                for row in shard_rows:
                    key = schema.key_of(row)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        rows.append(row)
            else:
                rows.extend(shard_rows)
        return rows

    def g_lookup(self, ctx: TxnContext, table: str, column: str,
                 value: typing.Any, shard_value: typing.Any):
        """Secondary-index equality lookup inside a transaction.

        ``shard_value`` is the distribution-column value locating the shard
        (e.g. the warehouse id for TPC-C tables).
        """
        shard = self.shard_map.shard_for_value(table, shard_value) \
            if not self.shard_map.is_replicated(table) \
            else self._shard_for_key(table, ())
        ctx.touched_shards.add(shard)
        reply = yield self.network.request(
            self.name, self._primary(shard),
            ("lookup_index", ctx.txid, ctx.read_ts, table, column, value))
        rows, _ts = reply
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
                    self.name, self._primary(write_shards[0]),
                    ("commit_local", ctx.txid, ctx.mode),
                    timeout_ns=self.config.op_timeout_ns)
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
        prepares = [
            self.network.request(self.name, self._primary(shard),
                                 ("prepare", ctx.txid),
                                 timeout_ns=self.config.op_timeout_ns)
            for shard in write_shards
        ]
        yield settle(self.env, prepares)
        if not all(request.ok and request.value[0] == "ok" for request in prepares):
            yield from self._abort_prepared_everywhere(ctx, write_shards)
            self._note_abort()
            raise TransactionAborted("2PC prepare failed")
        try:
            ts = yield from self.provider.commit_ts(ctx.mode, txid=ctx.txid)
        except TransactionAborted:
            yield from self._abort_prepared_everywhere(ctx, write_shards)
            self._note_abort()
            raise
        finishes = [
            self.network.request(self.name, self._primary(shard),
                                 ("commit_prepared", ctx.txid, ts),
                                 timeout_ns=self.config.op_timeout_ns)
            for shard in write_shards
        ]
        yield settle(self.env, finishes)
        self.txns_committed += 1
        self._trace_commit(ctx, commit_started, ts, shards=len(write_shards))
        return ts

    def _abort_prepared_everywhere(self, ctx: TxnContext,
                                   write_shards: list[int]):
        aborts = [
            self.network.request(self.name, self._primary(shard),
                                 ("abort_prepared", ctx.txid),
                                 timeout_ns=self.config.op_timeout_ns)
            for shard in write_shards
        ]
        yield settle(self.env, aborts)

    def g_abort(self, ctx: TxnContext):
        if ctx.finished:
            return
        ctx.finished = True
        self._note_abort()
        aborts = [
            self.network.request(self.name, self._primary(shard),
                                 ("abort", ctx.txid),
                                 timeout_ns=self.config.op_timeout_ns)
            for shard in sorted(ctx.write_shards)
        ]
        if aborts:
            yield settle(self.env, aborts)

    # ------------------------------------------------------------------
    # Read-only queries (ROR when enabled, primary reads otherwise)
    # ------------------------------------------------------------------
    def _ddl_fence_ok(self, tables: typing.Sequence[str], rcp: int) -> bool:
        """§IV-A DDL rules: RCP must have passed the global max DDL
        timestamp, or failing that, each involved table's DDL timestamp."""
        if rcp > self.catalog.max_ddl_ts:
            return True
        return all(rcp > self.catalog.ddl_ts(table) for table in tables)

    def invalidate_routes(self) -> None:
        """Drop cached routing pools. Must be called after *any* change to
        the inputs of :meth:`_choose_read_node`: the ``self.metrics``
        table (status replies, failure marking) or the shard placement
        (placement updates, failover rewiring)."""
        self._route_cache.clear()

    def _choose_read_node(self, shard: int, rcp: int,
                          staleness_bound_ns: int | None) -> tuple[str, bool]:
        """Pick (node_name, is_replica) for a shard read at the RCP.

        The skyline near-pool is cached per ``(shard, bound, min_ts)``
        between metric/placement changes; the pool's order — and hence the
        ``rng.choice`` draw sequence — is identical to recomputing, so the
        cache cannot alter simulated histories."""
        min_ts = max(0, rcp - self.config.replica_lag_guard_ns)
        cache_key = (shard, staleness_bound_ns, min_ts)
        near = self._route_cache.get(cache_key)
        if near is None:
            candidates = []
            for name in self.replicas_of_shard.get(shard, []):
                metrics = self.metrics.get(name)
                if metrics is not None:
                    candidates.append(metrics)
            primary_metrics = self.metrics.get(self._primary(shard))
            if primary_metrics is not None:
                candidates.append(primary_metrics)
            near = near_pool(candidates, staleness_bound_ns, min_ts)
            self._route_cache[cache_key] = near
        if not near:
            if staleness_bound_ns is not None:
                raise StalenessBoundError(
                    f"no node for shard {shard} within "
                    f"{staleness_bound_ns}ns staleness")
            primary_name = self._primary(shard)
            if self.network.endpoint(primary_name).up:
                if self.env.metrics_on:
                    self.env.metrics.counter("ror.picks", cn=self.name,
                                             target="primary_fallback").inc()
                return primary_name, False
            raise ReplicaUnavailableError(f"no live node for shard {shard}")
        if len(near) == 1:
            chosen = near[0]
        else:
            chosen = self._route_rng.choice(near)
        if self.env.metrics_on:
            self.env.metrics.counter(
                "ror.picks", cn=self.name,
                target="primary" if chosen.is_primary else "replica").inc()
        return chosen.name, not chosen.is_primary

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
        if self.config.ror_enabled:
            rcp = self.rcp_state.rcp
            if rcp >= min_read_ts and self._ddl_fence_ok(tables, rcp):
                return rcp, True
        read_ts, _mode = yield from self.provider.begin()
        return read_ts, False

    def _ro_shard_call(self, shard: int, read_ts: int, use_ror: bool,
                       staleness_bound_ns: int | None,
                       replica_body, primary_body):
        """Generator: one read-only RPC against the best node for a shard.

        ``replica_body(node)`` / ``primary_body(node)`` build the request
        payloads. On a network failure the node is marked down in the
        metric table and the call retries against the primary — the
        paper's automatic rerouting around failed nodes (§IV-B).
        """
        if use_ror:
            node, is_replica = self._choose_read_node(shard, read_ts,
                                                      staleness_bound_ns)
        else:
            node, is_replica = self._primary(shard), False
        body = replica_body(node) if is_replica else primary_body(node)
        try:
            reply = yield self.network.request(
                self.name, node, body, timeout_ns=self.config.op_timeout_ns)
        except NetworkError:
            known = self.metrics.get(node)
            if known is not None:
                known.up = False
                self.invalidate_routes()
            primary = self._primary(shard)
            if node == primary or not self.network.endpoint(primary).up:
                raise ReplicaUnavailableError(
                    f"no reachable node for shard {shard}")
            self.primary_fallback_reads += 1
            reply = yield self.network.request(
                self.name, primary, primary_body(primary),
                timeout_ns=self.config.op_timeout_ns)
            return reply
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
        shard = self._shard_for_key(table, key)
        reply = yield from self._ro_shard_call(
            shard, read_ts, use_ror, staleness_bound_ns,
            lambda node: ("read_replica", read_ts, table, key),
            lambda node: ("read", None, read_ts, table, key))
        return reply[0]

    def _lookup_shard(self, table: str, shard_value) -> int:
        if self.shard_map.is_replicated(table):
            return self._shard_for_key(table, ())
        return self.shard_map.shard_for_value(table, shard_value)

    def g_ro_lookup(self, read_ts: int, use_ror: bool, table: str,
                    column: str, value: typing.Any, shard_value: typing.Any,
                    staleness_bound_ns: int | None = None):
        """Generator: index lookup at a pinned read-only snapshot."""
        shard = self._lookup_shard(table, shard_value)
        reply = yield from self._ro_shard_call(
            shard, read_ts, use_ror, staleness_bound_ns,
            lambda node: ("lookup_replica", read_ts, table, column, value),
            lambda node: ("lookup_index", None, read_ts, table, column, value))
        return reply[0]

    def g_ro_read_batch(self, read_ts: int, use_ror: bool, table: str,
                        keys: typing.Sequence[tuple],
                        staleness_bound_ns: int | None = None):
        """Generator: several same-shard point reads in one statement."""
        if not keys:
            return []
        shard = self._shard_for_key(table, keys[0])
        key_list = list(keys)
        reply = yield from self._ro_shard_call(
            shard, read_ts, use_ror, staleness_bound_ns,
            lambda node: ("read_replica_batch", read_ts, table, key_list),
            lambda node: ("read_batch", None, read_ts, table, key_list))
        return reply[0]

    def g_ro_lookup_batch(self, read_ts: int, use_ror: bool, table: str,
                          column: str, values: typing.Sequence,
                          shard_value: typing.Any,
                          staleness_bound_ns: int | None = None):
        """Generator: several same-shard index lookups in one statement."""
        if not values:
            return []
        shard = self._lookup_shard(table, shard_value)
        value_list = list(values)
        reply = yield from self._ro_shard_call(
            shard, read_ts, use_ror, staleness_bound_ns,
            lambda node: ("lookup_replica_batch", read_ts, table, column,
                          value_list),
            lambda node: ("lookup_batch", None, read_ts, table, column,
                          value_list))
        return reply[0]

    def g_read_only(self, table: str, key: tuple,
                    staleness_bound_ns: int | None = None,
                    min_read_ts: int = 0):
        """Generator: a consistent single-row read-only query.

        ``min_read_ts`` is the caller's read-your-writes floor: if the RCP
        has not yet covered it, the read falls back to the primary with a
        fresh provider snapshot.
        """
        read_ts, use_ror = yield from self.ro_snapshot([table], min_read_ts)
        bound = (staleness_bound_ns if staleness_bound_ns is not None
                 else self.config.default_staleness_bound_ns)
        return (yield from self.g_ro_read(read_ts, use_ror, table, key,
                                          staleness_bound_ns=bound))

    def g_read_only_multi(self, table: str, keys: typing.Sequence[tuple],
                          staleness_bound_ns: int | None = None,
                          min_read_ts: int = 0):
        """Generator: a consistent multi-row (multi-shard) read-only query;
        all rows are read at one snapshot."""
        read_ts, use_ror = yield from self.ro_snapshot([table], min_read_ts)
        bound = (staleness_bound_ns if staleness_bound_ns is not None
                 else self.config.default_staleness_bound_ns)
        replies = yield from self._ro_fanout([
            self.g_ro_read(read_ts, use_ror, table, key,
                           staleness_bound_ns=bound)
            for key in keys
        ])
        return replies

    def g_scan_only(self, table: str,
                    predicate: typing.Callable[[dict], bool] | None = None,
                    staleness_bound_ns: int | None = None,
                    min_read_ts: int = 0):
        """Generator: a consistent read-only scan over every shard."""
        read_ts, use_ror = yield from self.ro_snapshot([table], min_read_ts)
        bound = (staleness_bound_ns if staleness_bound_ns is not None
                 else self.config.default_staleness_bound_ns)
        replicated = self.shard_map.is_replicated(table)
        schema = self.shard_map.schema(table)
        shards = ([self._shard_for_key(table, ())] if replicated
                  else self.shard_map.all_shards())

        def one_shard(shard):
            reply = yield from self._ro_shard_call(
                shard, read_ts, use_ror, bound,
                lambda node: ("scan_replica", read_ts, table, predicate),
                lambda node: ("scan", None, read_ts, table, predicate))
            return reply

        replies = yield from self._ro_fanout(
            [one_shard(shard) for shard in shards])
        return self._merge_rows(replies, replicated and len(replies) > 1,
                                schema)

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
        ddl_ts = yield from self.provider.commit_ts(self.mode)
        self.shard_map.register(schema, range_bounds)
        requests = [
            self.network.request(self.name, primary,
                                 ("ddl", "create_table", schema.name, schema, ddl_ts))
            for primary in self.all_primaries
        ]
        yield self.env.all_of(requests)
        self._apply_ddl_locally("create_table", schema.name, schema, ddl_ts)
        self._broadcast_ddl("create_table", schema.name, schema, ddl_ts)
        return ddl_ts

    def g_drop_table(self, table: str):
        ddl_ts = yield from self.provider.commit_ts(self.mode)
        requests = [
            self.network.request(self.name, primary,
                                 ("ddl", "drop_table", table, None, ddl_ts))
            for primary in self.all_primaries
        ]
        yield self.env.all_of(requests)
        self.shard_map.unregister(table)
        self._apply_ddl_locally("drop_table", table, None, ddl_ts)
        self._broadcast_ddl("drop_table", table, None, ddl_ts)
        return ddl_ts

    def g_create_index(self, table: str, column: str):
        ddl_ts = yield from self.provider.commit_ts(self.mode)
        requests = [
            self.network.request(self.name, primary,
                                 ("ddl", "create_index", table, column, ddl_ts))
            for primary in self.all_primaries
        ]
        yield self.env.all_of(requests)
        self._apply_ddl_locally("create_index", table, column, ddl_ts)
        self._broadcast_ddl("create_index", table, column, ddl_ts)
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
