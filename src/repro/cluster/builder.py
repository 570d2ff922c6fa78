"""Cluster construction and the GlobalDB facade.

:class:`ClusterConfig` describes a deployment; :func:`build_cluster` wires
it into a running simulated cluster; :class:`GlobalDB` is the handle users
and benchmarks hold.

Two presets mirror the paper's §V systems:

- ``ClusterConfig.baseline(topology)`` — stock GaussDB: centralized GTM,
  synchronous quorum replication (with a remote-region replica when the
  topology spans regions), stock transport (no compression, loss-based
  congestion control, Nagle on), no reads-on-replica.
- ``ClusterConfig.globaldb(topology)`` — GlobalDB: GClock transaction
  management, asynchronous replication with the optimized transport stack,
  and ROR enabled.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace

from repro.clocks import GlobalTimeDevice
from repro.errors import SimulationError
from repro.obs import MonitorEngine, default_monitor_rules, enable_observability
from repro.replication.quorum import ReplicationPolicy
from repro.replication.shipper import (LogShipper, ShipperConfig,
                                       replica_backlog)
from repro.ror.control import ControlPlane
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.rand import RandomStreams
from repro.sim.units import seconds
from repro.storage.catalog import TableSchema
from repro.txn.gtm import GTMServer
from repro.txn.migration import MigrationCoordinator, MigrationReport
from repro.txn.modes import TxnMode
from repro.cluster.cn import CnConfig, ComputingNode
from repro.cluster.client import Session
from repro.cluster.dn import DataNode
from repro.cluster.failover import FailoverManager
from repro.cluster.sharding import ShardMap
from repro.cluster.topology import Topology, one_region


@dataclass
class ClusterConfig:
    """A deployment description."""

    topology: Topology = field(default_factory=one_region)
    cns_per_region: int = 1
    shards: int = 6
    replicas_per_shard: int = 2
    txn_mode: TxnMode = TxnMode.GCLOCK
    replication: ReplicationPolicy = field(default_factory=ReplicationPolicy.async_)
    shipper: ShipperConfig = field(default_factory=ShipperConfig.optimized)
    ror_enabled: bool = True
    cn_config: CnConfig | None = None
    seed: int = 0
    gtm_region: str | None = None
    #: When True, a failover manager probes primaries and promotes the
    #: most-caught-up replica of a dead shard (§IV). Off by default so
    #: failure-injection tests can observe raw failure behaviour.
    auto_failover: bool = False
    failover_grace_ns: int = 300_000_000
    #: Background MVCC vacuum on every data node. The retention window is
    #: how far back snapshots stay readable; it must exceed clock error
    #: bounds and any staleness bound handed to queries.
    vacuum_interval_ns: int = 2_000_000_000
    vacuum_retention_ns: int = 5_000_000_000
    #: Observability (repro.obs): attach a live metrics registry and/or
    #: span tracer to the environment before any node is constructed.
    #: Purely passive — a run's event history is identical either way.
    metrics_enabled: bool = False
    trace_enabled: bool = False
    #: Telemetry pipeline (repro.obs.timeseries / monitor): windowed
    #: time-series sampling plus the default online SLO monitors
    #: (default_monitor_rules). Also passive; off by default so the pinned
    #: smoke digest is unchanged.
    timeseries_enabled: bool = False

    @classmethod
    def baseline(cls, topology: Topology | None = None, **overrides) -> "ClusterConfig":
        """Stock GaussDB: GTM + synchronous replication + stock transport."""
        topology = topology or one_region()
        multi_region = len(topology.regions) > 1
        policy = (ReplicationPolicy.remote_quorum(1) if multi_region
                  else ReplicationPolicy.quorum(1))
        config = cls(topology=topology, txn_mode=TxnMode.GTM,
                     replication=policy, shipper=ShipperConfig.baseline(),
                     ror_enabled=False)
        return replace(config, **overrides)

    @classmethod
    def globaldb(cls, topology: Topology | None = None, **overrides) -> "ClusterConfig":
        """GlobalDB: GClock + async replication + optimized transport + ROR."""
        config = cls(topology=topology or one_region())
        return replace(config, **overrides)


class GlobalDB:
    """Handle to a running simulated cluster."""

    def __init__(self, config: ClusterConfig, env: Environment,
                 network: Network, gtm: GTMServer,
                 cns: list[ComputingNode], primaries: list[DataNode],
                 replicas: dict[int, list[DataNode]],
                 shippers: list[LogShipper], shard_map: ShardMap,
                 migration: MigrationCoordinator,
                 failover: FailoverManager | None = None,
                 devices: dict[str, GlobalTimeDevice] | None = None):
        self.config = config
        self.env = env
        self.network = network
        self.gtm = gtm
        self.cns = cns
        self.primaries = primaries
        self.replicas = replicas
        self.shippers = shippers
        self.shard_map = shard_map
        self.migration = migration
        self.failover = failover
        #: region -> GlobalTimeDevice, the clock-fault injection surface
        #: used by repro.chaos (SyncOutage and friends).
        self.devices = devices or {}
        self._session_rr = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_for(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` simulated seconds."""
        self.env.run_for(seconds(duration_s))

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, region: str | None = None,
                cn: ComputingNode | None = None) -> Session:
        """Open a client session bound to a CN (round-robin per region)."""
        if cn is None:
            candidates = (self.cns if region is None else
                          [node for node in self.cns if node.region == region])
            if not candidates:
                raise SimulationError(f"no CN in region {region!r}")
            cn = candidates[self._session_rr % len(candidates)]
            self._session_rr += 1
        return Session(self, cn)

    # ------------------------------------------------------------------
    # Offline setup (before the workload runs)
    # ------------------------------------------------------------------
    def create_table_offline(self, schema: TableSchema,
                             range_bounds: list | None = None,
                             indexes: typing.Sequence[str] = ()) -> None:
        """Install a table everywhere without consuming simulated time.

        The moral equivalent of setting up the schema before the benchmark
        window starts. Online DDL goes through ``session.create_table``.
        """
        # Offline data is committed at ts=1; GTM snapshots must cover it.
        self.gtm.counter = max(self.gtm.counter, 1)
        self.shard_map.register(schema, range_bounds)
        replicas = [replica for replica_list in self.replicas.values()
                    for replica in replica_list]
        for dn in self.primaries + replicas:
            dn.engine.create_table(schema, ddl_ts=1, log=False)
            for column in indexes:
                dn.engine.create_index(schema.name, column, ddl_ts=1,
                                       log=False)
        for cn in self.cns:
            if not cn.catalog.has_table(schema.name):
                cn.catalog.create_table(schema, ddl_ts=1)

    def bulk_load(self, table: str, rows: typing.Iterable[dict]) -> int:
        """Install rows on primaries and replicas as committed data.

        Each row is copied once here; every store that holds it adopts
        that one image (a replicated table's on all shards), so the caller
        keeps ownership of what it passed in."""
        by_shard: dict[int, list[dict]] = {}
        if self.shard_map.is_replicated(table):
            all_rows = [dict(row) for row in rows]
            for shard in self.shard_map.all_shards():
                by_shard[shard] = all_rows
        else:
            for row in rows:
                shard = self.shard_map.shard_for_row(table, row)
                by_shard.setdefault(shard, []).append(dict(row))
        total = 0
        for shard, shard_rows in by_shard.items():
            total += self.primaries[shard].engine.bulk_load(table, shard_rows)
            for replica in self.replicas.get(shard, []):
                replica.engine.bulk_load(table, shard_rows)
        if self.shard_map.is_replicated(table):
            return len(by_shard[0]) if by_shard else 0
        return total

    # ------------------------------------------------------------------
    # Migration (§III-A)
    # ------------------------------------------------------------------
    def migrate_to_gclock(self) -> MigrationReport:
        """Run the online GTM -> GClock transition to completion."""
        process = self.env.process(self.migration.to_gclock(), name="migrate")
        return self.env.run(until=process)

    def migrate_to_gtm(self) -> MigrationReport:
        """Run the online GClock -> GTM transition to completion."""
        process = self.env.process(self.migration.to_gtm(), name="migrate")
        return self.env.run(until=process)

    # ------------------------------------------------------------------
    # Fault & delay injection
    # ------------------------------------------------------------------
    def inject_delay_all(self, extra_ns: int) -> None:
        """tc-style delay between servers (Figs. 6b-6d): only links whose
        endpoints live on different machines are delayed, mirroring the
        paper's per-machine ``tc`` configuration."""
        self.network.inject_delay_between_regions(extra_ns)

    def all_nodes(self) -> list:
        nodes: list = list(self.cns) + list(self.primaries)
        for replica_list in self.replicas.values():
            nodes.extend(replica_list)
        return nodes

    def node(self, name: str):
        for candidate in self.all_nodes():
            if candidate.name == name:
                return candidate
        raise SimulationError(f"no node named {name!r}")

    def total_commits(self) -> int:
        return sum(cn.txns_committed for cn in self.cns)

    def total_aborts(self) -> int:
        return sum(cn.txns_aborted for cn in self.cns)

    def stats(self) -> dict:
        """A cluster-wide observability snapshot (commits, reads, RCP,
        replication, GTM traffic) — handy in examples and debugging.

        ``rcp`` and ``rcp_lag_ns`` are both 0 on a cluster without ROR:
        no collector runs there, so there is no RCP to lag behind the
        primaries' frontier."""
        replica_nodes = [replica for replica_list in self.replicas.values()
                         for replica in replica_list]
        rcp = rcp_lag_ns = 0
        if self.config.ror_enabled:
            frontier = max((primary.engine.max_commit_ts
                            for primary in self.primaries), default=0)
            rcp = max((cn.rcp_state.rcp for cn in self.cns), default=0)
            rcp_lag_ns = max(0, frontier - rcp)
        return {
            "sim_time_s": self.env.now / 1e9,
            "mode": str(self.gtm.mode),
            "commits": self.total_commits(),
            "aborts": self.total_aborts(),
            "read_only_queries": sum(cn.read_only_queries for cn in self.cns),
            "replica_reads": sum(cn.ror_reads for cn in self.cns),
            "primary_reads": sum(cn.primary_fallback_reads for cn in self.cns),
            "gtm_requests": self.gtm.begin_requests + self.gtm.commit_requests,
            "rpc_timeouts": self.network.rpc_timeouts,
            "rcp": rcp,
            "rcp_lag_ns": rcp_lag_ns,
            "wal_bytes": sum(primary.engine.wal.bytes_written
                             for primary in self.primaries),
            "wire_bytes_shipped": sum(shipper.wire_bytes_total
                                      for shipper in self.shippers),
            "replicas_up": sum(1 for replica in replica_nodes
                               if not replica.failed),
            "mean_commit_wait_ms": (
                sum(node.provider.stats.commit_wait_ns_total
                    for node in self.all_nodes())
                / max(1, sum(node.provider.stats.commit_waits
                             for node in self.all_nodes())) / 1e6),
        }


def build_cluster(config: ClusterConfig) -> GlobalDB:
    """Wire a :class:`ClusterConfig` into a running cluster."""
    env = Environment()
    if config.metrics_enabled or config.trace_enabled or config.timeseries_enabled:
        # Before node construction, so construction-time instruments land
        # in the live registry.
        enable_observability(env, metrics=config.metrics_enabled,
                             trace=config.trace_enabled,
                             timeseries=config.timeseries_enabled)
        if config.timeseries_enabled:
            env.monitor = MonitorEngine(env, env.series, default_monitor_rules(
                replicas_per_shard=config.replicas_per_shard,
                heartbeats=config.ror_enabled))
    streams = RandomStreams(config.seed)
    network = Network(env, jitter_stream=streams.stream("net-jitter"))
    regions = list(config.topology.regions)
    if config.gtm_region is None:
        # The paper collocates the GTM server on the machine with the
        # lowest mean latency to the others (§V-A).
        def mean_latency(region: str) -> int:
            others = [r for r in regions if r != region]
            if not others:
                return 0
            return sum(config.topology.latency_ns(region, other)
                       for other in others) // len(others)
        gtm_region = min(regions, key=mean_latency)
    else:
        gtm_region = config.gtm_region
    if gtm_region not in regions:
        raise SimulationError(f"gtm_region {gtm_region!r} not in topology")

    devices = {
        region: GlobalTimeDevice(env, region, rng=streams.stream(f"device:{region}"))
        for region in regions
    }
    gtm = GTMServer(env, network, name="gtms", region=gtm_region)
    gtm.mode = TxnMode.GTM if config.txn_mode is TxnMode.GTM else TxnMode.GCLOCK

    shard_map = ShardMap(config.shards)
    primaries: list[DataNode] = []
    replicas: dict[int, list[DataNode]] = {}
    shippers: list[LogShipper] = []

    # --- Data nodes: primary of shard i lives in regions[i % R]; its
    # replicas go to the following regions round-robin (same region when
    # the topology has a single region, as in the One-Region cluster).
    for shard in range(config.shards):
        primary_region = regions[shard % len(regions)]
        primary = DataNode(
            env, network, f"dn{shard}", primary_region,
            devices[primary_region], streams, gtm.name, mode=config.txn_mode,
            shard_id=shard, role="primary",
            replication_policy=config.replication)
        primaries.append(primary)
        replicas[shard] = []
        for index in range(config.replicas_per_shard):
            replica_region = regions[(shard + index + 1) % len(regions)]
            replica = DataNode(
                env, network, f"dn{shard}r{index}", replica_region,
                devices[replica_region], streams, gtm.name,
                mode=config.txn_mode, shard_id=shard, role="replica")
            replicas[shard].append(replica)
            primary.acks.add_replica(replica.name, replica_region)
            shippers.append(LogShipper(
                env, network, primary.engine.wal, primary.name, replica.name,
                config=config.shipper,
                backlog_fn=replica_backlog(primary, replica.name)))

    # --- Computing nodes.
    cns: list[ComputingNode] = []
    cn_index = 0
    for region in regions:
        for k in range(config.cns_per_region):
            cn = ComputingNode(
                env, network, f"cn-{region}-{k}", region, devices[region],
                streams, gtm.name, mode=config.txn_mode, cn_index=cn_index,
                shard_map=shard_map, config=config.cn_config)
            cns.append(cn)
            cn_index += 1

    # --- Placement wiring.
    all_primaries = [primary.name for primary in primaries]
    all_replicas = [replica.name
                    for replica_list in replicas.values()
                    for replica in replica_list]
    for cn in cns:
        cn.primary_of_shard = {shard: primaries[shard].name
                               for shard in range(config.shards)}
        cn.replicas_of_shard = {
            shard: [replica.name for replica in replica_list]
            for shard, replica_list in replicas.items()}
        cn.peer_cns = [node.name for node in cns]
        cn.region_cns = [node.name for node in cns if node.region == cn.region]
        cn.all_primaries = all_primaries
        cn.all_replicas = all_replicas

    # --- Links from the topology.
    endpoint_names = ([gtm.name] + [cn.name for cn in cns] + all_primaries
                      + all_replicas)
    endpoint_regions = {gtm.name: gtm_region}
    for cn in cns:
        endpoint_regions[cn.name] = cn.region
    for primary in primaries:
        endpoint_regions[primary.name] = primary.region
    for replica_list in replicas.values():
        for replica in replica_list:
            endpoint_regions[replica.name] = replica.region
    for i, src in enumerate(endpoint_names):
        for dst in endpoint_names[i + 1:]:
            region_a = endpoint_regions[src]
            region_b = endpoint_regions[dst]
            network.set_link(
                src, dst,
                latency_ns=config.topology.latency_ns(region_a, region_b),
                bandwidth_bps=config.topology.bandwidth_bps(region_a, region_b),
                jitter_ns=config.topology.jitter_ns)

    # --- Migration coordinator (participants: CNs + primary DNs; replicas
    # never issue timestamps).
    migration = MigrationCoordinator(
        env, network, "admin", gtm.name,
        participants=[cn.name for cn in cns] + all_primaries)
    network.set_link("admin", gtm.name,
                     latency_ns=config.topology.intra_latency_ns)

    # --- ROR control plane (ROR clusters only): the first CN of each
    # region starts as that region's RCP collector.
    if config.ror_enabled:
        for region in regions:
            region_cns = [cn for cn in cns if cn.region == region]
            for index, cn in enumerate(region_cns):
                cn.ror = ControlPlane(cn, initial_collector=(index == 0))

    # --- Background vacuum on every data node.
    for primary in primaries:
        primary.start_vacuum(config.vacuum_interval_ns,
                             config.vacuum_retention_ns)
    for replica_list in replicas.values():
        for replica in replica_list:
            replica.start_vacuum(config.vacuum_interval_ns,
                                 config.vacuum_retention_ns)

    # --- Failover manager (probing only when enabled).
    failover = FailoverManager(
        env=env, network=network, name="failover-mgr", primaries=primaries,
        replicas=replicas, cns=cns, shipper_config=config.shipper,
        shippers=shippers, grace_ns=config.failover_grace_ns)
    if config.auto_failover:
        failover.start()

    return GlobalDB(config, env, network, gtm, cns, primaries, replicas,
                    shippers, shard_map, migration, failover=failover,
                    devices=devices)
