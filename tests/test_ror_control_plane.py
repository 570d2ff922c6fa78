"""The ROR control plane (one probe round: status requests to replicas,
heartbeat notices to primaries and their status answers) runs only on
clusters with ROR; a cluster without it stays fully usable."""

import pytest

from repro import ClusterConfig, build_cluster, one_region, three_city
from repro.obs.report import messages_by_kind
from repro.ror.control import RCP_POLL_INTERVAL_NS, RCP_PROBE_TIMEOUT_NS
from repro.sim.units import ms
from repro.workloads import TpccConfig, TpccWorkload, run_workload

#: The two ways to build a cluster without ROR: the paper's baseline (GTM,
#: sync replication) and GlobalDB with replica reads switched off.
ROR_OFF = {
    "baseline": lambda **kw: ClusterConfig.baseline(three_city(), **kw),
    "globaldb-ror-off": lambda **kw: ClusterConfig.globaldb(
        three_city(), ror_enabled=False, **kw),
}

CONTROL_PLANE_KINDS = ("status", "heartbeat")


@pytest.fixture(params=sorted(ROR_OFF))
def ror_off_config(request):
    return ROR_OFF[request.param]


def wal_records(db) -> int:
    return sum(primary.engine.wal.last_lsn for primary in db.primaries)


ROWS = 24


def load_rows(db):
    """Commit ROWS rows spread over every shard; returns the writer."""
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")], primary_key=["k"])
    session.begin()
    for k in range(ROWS):
        session.insert("t", {"k": k, "v": k * 10})
    session.commit()
    assert {db.shard_map.shard_for_key("t", (k,)) for k in range(ROWS)} \
        == set(db.shard_map.all_shards())
    return session


class TestIdleTraffic:
    def test_idle_cluster_without_ror_is_silent(self, ror_off_config):
        db = build_cluster(ror_off_config(trace_enabled=True))
        db.run_for(1.0)
        kinds, _commits = messages_by_kind(db.env.tracer.spans)
        assert kinds == {}
        assert db.network.messages_delivered == 0
        assert db.stats()["gtm_requests"] == 0
        assert wal_records(db) == 0
        assert all(cn.ror is None for cn in db.cns)

    def test_idle_ror_cluster_sends_what_it_always_sent(self):
        """Guards the other direction: with ROR the idle second carries
        exactly the recorded control-plane traffic. Re-recorded when
        heartbeats became one-way notices at the start of each RCP round,
        logged only by a quiet primary (before: 3192 replies, 1096 redo
        batches, 1058 acks, 738 heartbeat RPCs, 704 WAL records), and
        again when the 25 ms status stream folded into the round (before:
        2488 replies, 2214 status requests, 384 ``max_commit_ts``
        requests). ``status`` is now the round's 384 replica requests plus
        the primaries' answers to 188 of the 192 notices (the last four
        are still on the wire when the second ends)."""
        db = build_cluster(ClusterConfig.globaldb(three_city(),
                                                  trace_enabled=True))
        db.run_for(1.0)
        kinds, _commits = messages_by_kind(db.env.tracer.spans)
        assert kinds == {"rpc_reply": 376, "status": 572,
                         "redo_batch": 332, "redo_ack": 320,
                         "heartbeat": 192}
        assert wal_records(db) == 166

    def test_gtm_mode_with_ror_still_heartbeats_through_the_gtm(self):
        """A GlobalDB cluster that fell back to GTM (or a baseline built
        with ROR on) keeps the whole control plane, GTM begins included."""
        db = build_cluster(ClusterConfig.baseline(
            three_city(), ror_enabled=True, trace_enabled=True))
        db.run_for(1.0)
        kinds, _commits = messages_by_kind(db.env.tracer.spans)
        assert all(kinds[kind] > 0 for kind in CONTROL_PLANE_KINDS)
        # 692 when every heartbeat RPC made a GTM begin.
        assert db.stats()["gtm_requests"] == 178


@pytest.mark.parametrize("topology", [one_region, three_city],
                         ids=["one_region", "three_city"])
def test_fault_free_ror_run_has_no_rpc_timeouts(topology):
    """No deadline expires unless something failed: a timeout in a
    fault-free run is a deadline shorter than the round trip it guards,
    and counts would not tell it from a real failure."""
    db = build_cluster(ClusterConfig.globaldb(topology()))
    db.run_for(0.5)  # idle: the control plane alone
    assert db.stats()["rpc_timeouts"] == 0
    result = run_workload(db, TpccWorkload(TpccConfig(warehouses=2)),
                          terminals=6, duration_s=0.5)
    assert result.stats.committed > 0
    assert db.stats()["rpc_timeouts"] == 0


class TestProbeRound:
    def test_a_non_collector_probes_and_reads_replicas(self):
        """Every CN runs the round, so a second CN in a region knows every
        data node; only the collector's notices may log a heartbeat, so
        the extra CNs change no WAL."""
        def idle(cns_per_region):
            db = build_cluster(ClusterConfig.globaldb(
                three_city(), cns_per_region=cns_per_region))
            db.run_for(1.0)
            return db

        db = idle(cns_per_region=2)
        assert wal_records(db) == wal_records(idle(cns_per_region=1))
        backups = [cn for cn in db.cns if not cn.ror.is_collector]
        assert len(backups) == len(db.config.topology.regions)
        data_nodes = {dn.name for dn in db.primaries} | {
            replica.name for replicas in db.replicas.values()
            for replica in replicas}
        for cn in backups:
            assert set(cn.ror.metrics) == data_nodes
        load_rows(db)
        db.run_for(0.5)
        reader = db.session(cn=backups[-1])
        rows = reader.read_only_multi("t", [(k,) for k in range(ROWS)])
        assert [row["v"] for row in rows] == [k * 10 for k in range(ROWS)]
        assert backups[-1].ror_reads > 0

    def test_a_silent_primary_is_marked_down(self):
        """A primary's metrics come only from its answers to the round's
        notices. Every CN marks it down once a notice has gone unanswered
        for ``RCP_PROBE_TIMEOUT_NS`` (seen at the next round's start), and
        not before: the CN learns of the failure from messages, not from
        the network's endpoint flag."""
        db = build_cluster(ClusterConfig.globaldb(one_region(),
                                                  cns_per_region=2))
        db.run_for(0.2)
        victim = db.primaries[0]
        assert all(cn.ror.metrics[victim.name].up for cn in db.cns)
        victim.fail()
        db.run_for((RCP_PROBE_TIMEOUT_NS - ms(10)) / 1e9)
        assert all(cn.ror.metrics[victim.name].up for cn in db.cns)
        # The first unanswered notice left within a round of the failure;
        # the silence is seen at the first round start after its timeout.
        db.run_for((ms(10) + 3 * RCP_POLL_INTERVAL_NS) / 1e9)
        assert not any(cn.ror.metrics[victim.name].up for cn in db.cns)
        victim.recover()
        db.run_for(0.05)
        assert all(cn.ror.metrics[victim.name].up for cn in db.cns)


class TestReadsWithoutRor:
    def test_read_only_queries_return_committed_rows_via_primaries(
            self, ror_off_config):
        db = build_cluster(ror_off_config(trace_enabled=True))
        writer = load_rows(db)
        reader = db.session(region=db.cns[-1].region)
        assert reader.read_only("t", (3,)) == {"k": 3, "v": 30}
        rows = reader.read_only_multi("t", [(k,) for k in range(ROWS)])
        assert [row["v"] for row in rows] == [k * 10 for k in range(ROWS)]
        scanned = reader.scan_only("t", lambda row: row["v"] >= 100)
        assert sorted(row["k"] for row in scanned) == list(range(10, ROWS))
        # Read-your-writes: the writer's own session sees its next commit.
        writer.begin()
        writer.update("t", (3,), {"v": -1})
        writer.commit()
        assert writer.read_only("t", (3,))["v"] == -1
        assert sum(cn.ror_reads for cn in db.cns) == 0
        assert sum(cn.read_only_queries for cn in db.cns) == 4
        kinds, _commits = messages_by_kind(db.env.tracer.spans)
        assert not set(kinds) & {"read_replica", "scan_replica",
                                 *CONTROL_PLANE_KINDS}

    def test_stats_report_no_rcp(self, ror_off_config):
        db = build_cluster(ror_off_config())
        load_rows(db)
        db.run_for(0.3)
        stats = db.stats()
        assert stats["commits"] >= 1
        assert stats["rcp"] == 0
        assert stats["rcp_lag_ns"] == 0

    def test_stats_report_the_rcp_with_ror(self):
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        load_rows(db)
        db.run_for(0.3)
        stats = db.stats()
        assert stats["rcp"] > 0
        assert 0 <= stats["rcp_lag_ns"] < ms(300)


class TestFailoverWithoutRor:
    def test_auto_failover_promotes_a_replica(self, ror_off_config):
        """The failover manager probes primaries itself; it never relied
        on the CNs' status loop."""
        db = build_cluster(ror_off_config(auto_failover=True,
                                          failover_grace_ns=ms(200)))
        session = load_rows(db)
        db.run_for(0.5)  # let every replica apply the load
        victim_shard = 1
        old_name = db.primaries[victim_shard].name
        db.primaries[victim_shard].fail()
        db.run_for(1.5)
        assert [event.shard for event in db.failover.events] == [victim_shard]
        new_primary = db.primaries[victim_shard]
        assert new_primary.name != old_name and new_primary.is_primary
        key = next(k for k in range(ROWS)
                   if db.shard_map.shard_for_key("t", (k,)) == victim_shard)
        session.begin()
        session.update("t", (key,), {"v": 555})
        session.commit()
        assert session.read_only("t", (key,))["v"] == 555


class TestTelemetryWithoutRor:
    def test_tpcc_then_idle_raises_no_alert(self, ror_off_config):
        """No ``ror.*`` / ``cluster.shard_replicas_up`` samples exist
        without the control plane, so ``rcp-stall``, ``staleness-bound``
        and ``quorum-degraded`` have nothing to trip on; and the
        ``frontier-silent`` watchdog is not armed where no heartbeat
        promises a moving frontier."""
        db = build_cluster(ror_off_config(timeseries_enabled=True))
        result = run_workload(db, TpccWorkload(TpccConfig(warehouses=2)),
                              terminals=6, duration_s=0.6, warmup_s=0.1)
        assert result.stats.committed > 0
        db.run_for(1.0)  # idle tail: replicas' frontiers stop moving
        db.env.series.catch_up()
        assert db.env.monitor.windows_evaluated > 20
        assert db.env.monitor.alerts == []
        sampled = {series.name for series in db.env.series.all_series()}
        assert "repl.applied_lsn" in sampled
        assert not any(name.startswith("ror.") for name in sampled)
        assert "cluster.shard_replicas_up" not in sampled
