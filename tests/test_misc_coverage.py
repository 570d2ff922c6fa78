"""Coverage for smaller surfaces: stats snapshot, network accounting,
SQL executor edges, timestamp provider edges, and the bench CLI."""

import pytest

from repro import ClusterConfig, build_cluster, one_region
from repro.bench.__main__ import EXPERIMENTS, main as bench_main
from repro.errors import SqlError
from repro.sim import Environment, ms
from repro.sim.network import Network, NetworkStats


class TestClusterStats:
    def test_stats_snapshot_fields(self):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1})
        session.commit()
        db.run_for(0.3)
        session.read_only("t", (1,))
        stats = db.stats()
        assert stats["commits"] >= 1
        assert stats["mode"] == "gclock"
        assert stats["rcp"] > 0
        assert stats["read_only_queries"] >= 1
        assert stats["wal_bytes"] > 0
        assert stats["wire_bytes_shipped"] > 0
        assert stats["replicas_up"] == 12
        assert stats["sim_time_s"] > 0

    def test_gtm_traffic_visible_in_stats(self):
        db = build_cluster(ClusterConfig.baseline(one_region()))
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1})
        session.commit()
        assert db.stats()["gtm_requests"] >= 2  # begin + commit at least


class TestNetworkStats:
    def test_capture_counts_bytes_per_link(self):
        env = Environment()
        net = Network(env)
        net.add_endpoint("a", "east")
        net.add_endpoint("b", "west")
        net.set_link("a", "b", latency_ns=ms(1))
        net.set_handler("b", lambda msg: None)
        net.send("a", "b", "x", size_bytes=500)
        env.run()
        stats = NetworkStats.capture(net)
        assert stats.messages_delivered == 1
        assert stats.bytes_by_link[("a", "b")] == 500


class TestSqlEdges:
    @pytest.fixture()
    def session(self):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        session = db.session()
        session.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t (k, v) VALUES (1, 10), (2, 20)")
        return session

    def test_mixed_aggregate_and_column_rejected(self, session):
        with pytest.raises(SqlError):
            session.execute("SELECT k, COUNT(*) FROM t")

    def test_sum_over_empty_result_is_null(self, session):
        result = session.execute("SELECT SUM(v) AS s FROM t WHERE k = 99")
        assert result == [{"s": None}]

    def test_count_star_over_empty_is_zero(self, session):
        result = session.execute("SELECT COUNT(*) AS n FROM t WHERE k = 99")
        assert result == [{"n": 0}]

    def test_expression_projection(self, session):
        rows = session.execute("SELECT v * 2 AS twice FROM t WHERE k = 1")
        assert rows == [{"twice": 20}]

    def test_missing_parameter_raises(self, session):
        with pytest.raises(SqlError):
            session.execute("SELECT * FROM t WHERE k = ?")

    def test_avg_alias_default_name(self, session):
        result = session.execute("SELECT MIN(v) FROM t")
        assert result == [{"min(v)": 10}]

    def test_delete_without_where_clears_table(self, session):
        result = session.execute("DELETE FROM t")
        assert result["count"] == 2
        assert session.execute("SELECT COUNT(*) AS n FROM t") == [{"n": 0}]

    def test_not_operator(self, session):
        rows = session.execute("SELECT k FROM t WHERE NOT k = 1")
        assert rows == [{"k": 2}]

    def test_or_predicate_scans(self, session):
        rows = session.execute(
            "SELECT k FROM t WHERE k = 1 OR v = 20 ORDER BY k")
        assert [row["k"] for row in rows] == [1, 2]


class TestBenchCli:
    def test_list_command(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig1a", "fig6a", "fig6b", "fig6c", "fig6d",
            "migration", "shipping", "ror"}
