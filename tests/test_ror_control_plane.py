"""The ROR control plane (status probes, RCP polls, heartbeats) runs only
on clusters with ROR; a cluster without it stays fully usable."""

import pytest

from repro import ClusterConfig, build_cluster, three_city
from repro.obs.report import messages_by_kind
from repro.sim.units import ms
from repro.workloads import TpccConfig, TpccWorkload, run_workload

#: The two ways to build a cluster without ROR: the paper's baseline (GTM,
#: sync replication) and GlobalDB with replica reads switched off.
ROR_OFF = {
    "baseline": lambda **kw: ClusterConfig.baseline(three_city(), **kw),
    "globaldb-ror-off": lambda **kw: ClusterConfig.globaldb(
        three_city(), ror_enabled=False, **kw),
}

CONTROL_PLANE_KINDS = ("status", "heartbeat", "max_commit_ts")


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
        assert not any(cn.is_collector for cn in db.cns)

    def test_idle_ror_cluster_sends_what_it_always_sent(self):
        """Guards the other direction: with ROR the idle second carries
        exactly the control-plane traffic it did before the loops became
        conditional (counts recorded on the parent commit)."""
        db = build_cluster(ClusterConfig.globaldb(three_city(),
                                                  trace_enabled=True))
        db.run_for(1.0)
        kinds, _commits = messages_by_kind(db.env.tracer.spans)
        assert kinds == {"rpc_reply": 3192, "status": 2214,
                         "redo_batch": 1096, "redo_ack": 1058,
                         "heartbeat": 738, "max_commit_ts": 384}
        assert wal_records(db) == 704

    def test_gtm_mode_with_ror_still_heartbeats_through_the_gtm(self):
        """A GlobalDB cluster that fell back to GTM (or a baseline built
        with ROR on) keeps the whole control plane, GTM begins included."""
        db = build_cluster(ClusterConfig.baseline(
            three_city(), ror_enabled=True, trace_enabled=True))
        db.run_for(1.0)
        kinds, _commits = messages_by_kind(db.env.tracer.spans)
        assert all(kinds[kind] > 0 for kind in CONTROL_PLANE_KINDS)
        assert db.stats()["gtm_requests"] == 692


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
