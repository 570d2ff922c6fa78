"""Shard failover: detect a dead primary and promote a replica.

The paper (§IV): "If a primary node fails, its replica nodes can continue
to serve read-only queries until the failed primary node recovers, or a
replica node is promoted to replace the primary node."

The manager probes every shard primary; after ``grace_ns`` of silence it
promotes the most-caught-up surviving replica (highest applied LSN — the
least data loss an asynchronous scheme permits), rebuilds the remaining
replicas from the new primary's snapshot, restarts log shipping, and
pushes the new placement to every CN. Transactions whose commits died with
the old primary are lost (the paper's acknowledged async-replication
trade-off); the manager reports how many.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.replication.shipper import (LogShipper, ShipperConfig,
                                       replica_backlog)
from repro.sim.core import Environment
from repro.sim.events import settle
from repro.sim.network import Network
from repro.sim.units import ms



@dataclass
class FailoverEvent:
    """Record of one completed failover."""

    at_ns: int
    shard: int
    old_primary: str
    new_primary: str
    in_doubt_aborted: int
    lost_commit_ts_window: int  # old frontier minus promoted frontier
    rcp_gap_healed: int = 0     # advertised RCP minus promoted frontier
    #: Gap measured but NOT healed — nonzero only when ``rcp_guard`` is
    #: off, i.e. the promotion broke the ROR promise. The repro.explore
    #: oracle layer asserts this is always zero.
    rcp_gap_unhealed: int = 0


@dataclass
class FailoverManager:
    """Monitors primaries and performs promotions."""

    env: Environment
    network: Network
    name: str
    primaries: list  # mutated in place: index = shard id
    replicas: dict   # shard -> list of DataNode
    cns: list
    shipper_config: ShipperConfig
    shippers: list
    probe_interval_ns: int = ms(50)
    grace_ns: int = ms(300)
    #: ROR promotion guard (the PR-8 fix): heal the gap between a stale
    #: promoted replica's redo frontier and the advertised RCP. Always on
    #: in real clusters; ``repro.explore`` turns it off (its "rcp-gap"
    #: known-bug injection) to prove the fuzzer rediscovers the historical
    #: violation — never disable it outside that self-test.
    rcp_guard: bool = True
    events: list = field(default_factory=list)
    _down_since: dict = field(default_factory=dict)
    _process: typing.Any = None

    def start(self) -> None:
        if self.name not in self.network._endpoints:
            self.network.add_endpoint(self.name, region="admin")
        self._process = self.env.process(self._run(), name="failover-manager")

    def _run(self):
        while True:
            yield self.env.timeout(self.probe_interval_ns)
            probes = {
                shard: self.network.request(
                    self.name, primary.name, ("status",),
                    timeout_ns=self.probe_interval_ns * 2)
                for shard, primary in enumerate(self.primaries)
            }
            yield settle(self.env, list(probes.values()))
            now = self.env.now
            for shard, probe in probes.items():
                if probe.ok:
                    self._down_since.pop(shard, None)
                    continue
                if shard not in self._down_since and self.env.series_on:
                    self.env.series.mark("failover.phase", shard=f"s{shard}",
                                         phase="down-detected")
                first_seen = self._down_since.setdefault(shard, now)
                if now - first_seen >= self.grace_ns:
                    self._promote(shard)
                    self._down_since.pop(shard, None)

    # ------------------------------------------------------------------
    def _promote(self, shard: int) -> None:
        old_primary = self.primaries[shard]
        survivors = [replica for replica in self.replicas[shard]
                     if not replica.failed]
        if not survivors:
            return  # nothing to promote; shard stays down
        chosen = max(survivors, key=lambda replica: replica.engine.applied_lsn)
        old_frontier = old_primary.engine.max_commit_ts
        promoted_frontier = chosen.engine.max_commit_ts
        in_doubt = chosen.promote_to_primary()
        chosen.replication_policy = old_primary.replication_policy
        self.primaries[shard] = chosen
        # ROR safety: CNs have advertised strongly-consistent replica reads
        # up to their RCP. If the promoted replica's redo frontier is behind
        # that (it was partitioned from the collector while peers advanced
        # the RCP), a replica read at the RCP on this shard would silently
        # return stale rows. Advance the new primary's frontier past every
        # CN's RCP with a redo heartbeat *before* rebuilding replicas, so
        # the whole shard group inherits the guarantee. Commits the old
        # primary acknowledged in that window are still lost (async
        # replication's trade-off) — this guard only ensures reads below
        # the advertised RCP never see a gap they were promised not to.
        advertised_rcp = max((cn.rcp_state.rcp for cn in self.cns), default=0)
        rcp_gap = max(0, advertised_rcp - chosen.engine.max_commit_ts)
        if rcp_gap and self.rcp_guard:
            chosen.engine.heartbeat(advertised_rcp)
        # Rebuild the remaining replicas from the new primary and restart
        # shipping to them.
        self._drop_shippers_from(old_primary.name)
        for replica in self.replicas[shard]:
            if replica is chosen or replica.failed:
                continue
            replica.rebuild_replica_from(chosen)
            chosen.acks.add_replica(replica.name, replica.region)
            self.shippers.append(LogShipper(
                self.env, self.network, chosen.engine.wal, chosen.name,
                replica.name, config=self.shipper_config,
                backlog_fn=replica_backlog(chosen, replica.name)))
        self.replicas[shard] = [replica for replica in self.replicas[shard]
                                if replica is not chosen]
        # Push the new placement to every CN (config-channel update plus
        # an in-band notice for realism).
        for cn in self.cns:
            cn.primary_of_shard[shard] = chosen.name
            cn.replicas_of_shard[shard] = [replica.name for replica in
                                           self.replicas[shard]]
            cn.all_primaries = [primary.name for primary in self.primaries]
            cn.all_replicas = [replica.name
                               for replica_list in self.replicas.values()
                               for replica in replica_list]
            if cn.ror is not None:
                cn.ror.invalidate_routes()
            self.network.send(self.name, cn.name,
                              ("placement_update", shard, chosen.name),
                              size_bytes=128)
        self.events.append(FailoverEvent(
            at_ns=self.env.now, shard=shard, old_primary=old_primary.name,
            new_primary=chosen.name, in_doubt_aborted=in_doubt,
            lost_commit_ts_window=max(0, old_frontier - promoted_frontier),
            rcp_gap_healed=rcp_gap if self.rcp_guard else 0,
            rcp_gap_unhealed=0 if self.rcp_guard else rcp_gap))
        if self.env.series_on:
            self.env.series.mark("failover.phase", shard=f"s{shard}",
                                 phase="promoted")

    def _drop_shippers_from(self, primary_name: str) -> None:
        for shipper in list(self.shippers):
            if shipper.src == primary_name:
                shipper.pause()
                self.shippers.remove(shipper)
