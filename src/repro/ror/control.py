"""The ROR control plane of one CN (§IV-A/B).

Everything a CN keeps only so that reads can go to replicas: the skyline
metric table and its route cache, the staleness estimator, the RCP
collector role, the replica choice for each read, and one probe round
that feeds them all (§IV-A/B ask the data nodes for two things, replica
frontiers for the RCP and node staleness, latency and load for the
skyline; one round carries both):

- a ``status`` request to every replica, whose reply carries the
  replica's frontier, load and role; each reply updates the metric table
  as it lands;
- a one-way ``heartbeat`` notice to every primary, stamped with its send
  time, which the primary answers with a one-way ``status`` notice (and,
  when the notice comes from a collector and the primary is quiet, by
  logging a heartbeat record). A primary that leaves notices unanswered
  for ``RCP_PROBE_TIMEOUT_NS`` is marked down.

Every CN runs the round, so every CN has metrics. When this CN holds the
collector role for its region it also computes the RCP from the round's
replies and distributes it; every other CN watches the collector and
takes over if updates stop (§IV-A).

The builder attaches one as ``cn.ror`` only on a cluster with ROR, so a
baseline cluster sends no ``status`` / ``heartbeat`` message and logs no
heartbeat record. Placement is read off the CN on every use, so a
failover's rewiring reaches the round at once. The RCP itself,
``cn.rcp_state``, stays on the CN: baseline CNs read it too.
"""

from __future__ import annotations

import random
import typing

from repro.errors import ReplicaUnavailableError, StalenessBoundError
from repro.ror.rcp import compute_rcp
from repro.ror.skyline import NodeMetrics, near_pool, skyline_summary
from repro.ror.staleness import StalenessEstimator
from repro.sim.events import settle
from repro.sim.units import ms, us

if typing.TYPE_CHECKING:
    from repro.cluster.cn import ComputingNode

#: Pause after a round, which waits for the slowest replica (about 92 ms
#: on Three-City); a CN that is not the collector checks for a takeover
#: before each round.
RCP_POLL_INTERVAL_NS = ms(5)
#: A replica that misses this is skipped for the round and marked down; a
#: primary that leaves a notice unanswered this long is marked down.
RCP_PROBE_TIMEOUT_NS = ms(500)
#: RCP updates this old make the first live CN of the region collector.
COLLECTOR_TIMEOUT_NS = ms(100)
#: Quiet interval: a notified primary whose frontier is this still heartbeats.
HEARTBEAT_INTERVAL_NS = ms(5)
#: Replicas whose last-known frontier trails the RCP by more than this are
#: not routed to (a known laggard would park readers in its safe-time
#: wait). A replica that answered the round the RCP came from is at or past
#: it; the guard catches one whose last answer is rounds old. Small lags are
#: fine: the replica-side wait covers the race.
REPLICA_LAG_GUARD_NS = ms(250)


class ControlPlane:
    """One CN's ROR routing state and the probe round that maintains it."""

    def __init__(self, cn: "ComputingNode", initial_collector: bool):
        self.cn = cn
        self.env = cn.env
        self.network = cn.network
        self.name = cn.name
        self.metrics: dict[str, NodeMetrics] = {}
        # (shard, staleness_bound, min_commit_ts) -> skyline near-pool,
        # invalidated on every metrics/placement change.
        self._route_cache: dict[tuple, list[NodeMetrics]] = {}
        self._route_rng = random.Random((cn.cn_index + 1) * 7919)
        self.staleness = StalenessEstimator(cn.env, cn.gclock, name=cn.name)
        self.is_collector = initial_collector
        self.last_rcp = 0
        # primary -> send time of its oldest notice not answered since.
        self._unanswered: dict[str, int] = {}
        self.env.process(self._rcp_loop(), name=f"{self.name}:rcp")

    # ------------------------------------------------------------------
    # The probe round, the RCP and collector takeover
    # ------------------------------------------------------------------
    def _on_status_reply(self, name: str, sent_at: int, event) -> None:
        """A replica's answer to the round's ``status`` request, or its
        deadline."""
        event.defused = True
        if event.ok:
            self.on_status(sent_at, event.value)
            return
        self.mark_down(name)
        if self.env.series_on:
            self._record_route_series(name)

    def on_status(self, sent_at: int, status: dict) -> None:
        """A node's status reached this CN: a replica's reply to the
        round's request, or a primary's notice answering the round's
        heartbeat notice sent at ``sent_at``."""
        name = status["name"]
        self._unanswered.pop(name, None)
        self.invalidate_routes()
        self.staleness.observe_frontier(status["max_commit_ts"])
        latency = (self.env.now - sent_at) // 2  # one-way estimate
        staleness_ns = self.staleness.estimate_ns(
            self.cn.mode, status["max_commit_ts"])
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
        for shard, replica_names in self.cn.replicas_of_shard.items():
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
            if not self.cn.failed:
                if not self.is_collector:
                    self._maybe_take_over()
                yield from self._round()
            yield self.env.timeout(RCP_POLL_INTERVAL_NS)

    def _round(self):
        """Generator: one probe round (see the module docstring). The
        collector then takes the RCP over every replica that answered (a
        down one must not freeze it) and pushes it to the region's other
        CNs."""
        started = self.env.now
        self._mark_silent_primaries()
        notice = ("heartbeat", started, self.is_collector)
        for primary in self.cn.all_primaries:
            self._unanswered.setdefault(primary, started)
            self.network.send(self.name, primary, notice, size_bytes=64)
        requests = {}
        for name in self.cn.all_replicas:
            request = self.network.request(
                self.name, name, ("status",),
                timeout_ns=RCP_PROBE_TIMEOUT_NS)
            # Registered before settle's own, so the table is updated
            # as each reply lands.
            request.add_callback(
                lambda event, name=name:
                self._on_status_reply(name, started, event))
            requests[name] = request
        if requests:
            yield settle(self.env, list(requests.values()))
        if not self.is_collector:
            return
        maxima = {name: request.value["max_commit_ts"]
                  for name, request in requests.items() if request.ok}
        if not maxima:
            return
        rcp = compute_rcp(maxima)
        advance = max(0, rcp - self.last_rcp)
        self.last_rcp = max(self.last_rcp, rcp)
        if self.env.series_on:
            series = self.env.series
            series.gauge("ror.rcp", self.last_rcp, cn=self.name)
            if advance:
                series.counter("ror.rcp_advance", advance, cn=self.name)
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.counter("ror.rcp_polls", cn=self.name).inc()
            metrics.set_gauge("ror.rcp", self.last_rcp, cn=self.name)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete("ror", "rcp_poll", started, self.env.now,
                            track=self.name, rcp=self.last_rcp,
                            replicas=len(maxima))
        self._note_rcp_update()
        self.cn.rcp_state.update(self.last_rcp, self.env.now, self.name)
        for peer in self.cn.region_cns:
            if peer != self.name:
                self.network.send(self.name, peer,
                                  ("rcp_update", self.last_rcp, self.name),
                                  size_bytes=64)

    def _mark_silent_primaries(self) -> None:
        """Mark down every primary that has left a notice unanswered for
        ``RCP_PROBE_TIMEOUT_NS``: as with a replica's missed deadline, this
        CN learns of a failure from the answers that stop coming."""
        now = self.env.now
        for name, since in self._unanswered.items():
            known = self.metrics.get(name)
            if (known is not None and known.up
                    and now - since >= RCP_PROBE_TIMEOUT_NS):
                self.mark_down(name)
                if self.env.series_on:
                    self._record_route_series(name)

    def on_rcp_update(self, rcp: int, collector: str) -> None:
        """An ``rcp_update`` notice from ``collector`` reached this CN."""
        self._note_rcp_update()
        self.cn.rcp_state.update(rcp, self.env.now, collector)
        if collector != self.name:
            self.is_collector = False

    def _note_rcp_update(self) -> None:
        """Record how stale this CN's RCP view got before the update."""
        metrics = self.env.metrics
        rcp_state = self.cn.rcp_state
        if metrics.enabled and rcp_state.updates_received:
            metrics.histogram("ror.rcp_age_ns", cn=self.name).record(
                rcp_state.age_ns(self.env.now))

    def _maybe_take_over(self) -> None:
        """Collector failover: if RCP updates stopped and this CN is the
        first live CN in its region's order, it takes the role (§IV-A)."""
        age = self.cn.rcp_state.age_ns(self.env.now)
        if age < COLLECTOR_TIMEOUT_NS:
            return
        for name in self.cn.region_cns:
            if name == self.name:
                self.is_collector = True
                return
            peer = self.network.endpoint(name)
            if peer.up:
                return  # an earlier CN is alive; it should take over

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def invalidate_routes(self) -> None:
        """Drop cached routing pools. Must be called after *any* change to
        the inputs of :meth:`choose_read_node`: the metric table (status
        replies, failure marking) or the shard placement (placement
        updates, failover rewiring)."""
        self._route_cache.clear()

    def mark_down(self, node: str) -> None:
        """A read to ``node`` failed, or its probe went unanswered: route
        around it (§IV-B)."""
        known = self.metrics.get(node)
        if known is not None:
            known.up = False
            self.invalidate_routes()

    def choose_read_node(self, shard: int, rcp: int,
                         staleness_bound_ns: int | None) -> tuple[str, bool]:
        """Pick (node_name, is_replica) for a shard read at the RCP.

        The skyline near-pool is cached per ``(shard, bound, min_ts)``
        between metric/placement changes; the pool's order — and hence the
        ``rng.choice`` draw sequence — is identical to recomputing, so the
        cache cannot alter simulated histories."""
        min_ts = max(0, rcp - REPLICA_LAG_GUARD_NS)
        cache_key = (shard, staleness_bound_ns, min_ts)
        near = self._route_cache.get(cache_key)
        if near is None:
            candidates = []
            for name in self.cn.replicas_of_shard.get(shard, []):
                metrics = self.metrics.get(name)
                if metrics is not None:
                    candidates.append(metrics)
            primary_metrics = self.metrics.get(self.cn.primary_of_shard[shard])
            if primary_metrics is not None:
                candidates.append(primary_metrics)
            near = near_pool(candidates, staleness_bound_ns, min_ts)
            self._route_cache[cache_key] = near
        if not near:
            if staleness_bound_ns is not None:
                raise StalenessBoundError(
                    f"no node for shard {shard} within "
                    f"{staleness_bound_ns}ns staleness")
            primary_name = self.cn.primary_of_shard[shard]
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
