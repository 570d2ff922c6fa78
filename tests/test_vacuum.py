"""MVCC vacuum: version reclamation, freezing, and clog pruning."""

from repro import ClusterConfig, build_cluster, one_region
from repro.sim import Environment, seconds
from repro.storage import ColumnDef, Snapshot, StorageEngine, TableSchema


def make_engine():
    env = Environment()
    engine = StorageEngine(env, "dn")
    engine.create_table(TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
    return env, engine


def committed_update(engine, txid, key, value, ts):
    engine.begin(txid)
    if engine.update(txid, "t", (key,), {"v": value}) is None:
        engine.insert(txid, "t", {"k": key, "v": value})
    engine.log_pending_commit(txid)
    engine.commit(txid, ts)


class TestVacuumHeap:
    def test_old_versions_reclaimed(self):
        env, engine = make_engine()
        for txid in range(1, 11):
            committed_update(engine, txid, key=1, value=txid, ts=txid * 100)
        heap = engine.table("t")
        assert heap.version_count() == 10
        stats = engine.vacuum(retention_ns=300)  # horizon = 1000-300 = 700
        # Versions committed at 100..600 are dead except the anchor at 700.
        assert stats.versions_removed == 6
        assert heap.version_count() == 4

    def test_visibility_preserved_at_and_above_horizon(self):
        env, engine = make_engine()
        for txid in range(1, 11):
            committed_update(engine, txid, key=1, value=txid, ts=txid * 100)
        engine.vacuum(retention_ns=300)
        # Snapshots at/above the horizon (700) read exactly what they did.
        assert engine.read("t", (1,), Snapshot(700))["v"] == 7
        assert engine.read("t", (1,), Snapshot(850))["v"] == 8
        assert engine.read("t", (1,), Snapshot(1000))["v"] == 10

    def test_deleted_key_fully_reclaimed(self):
        env, engine = make_engine()
        committed_update(engine, 1, key=2, value=1, ts=100)
        engine.begin(2)
        engine.delete(2, "t", (2,))
        engine.log_pending_commit(2)
        engine.commit(2, 200)
        engine.heartbeat(10_000)
        stats = engine.vacuum(retention_ns=1_000)  # horizon 9000 > 200
        assert stats.versions_removed == 1
        assert engine.table("t").versions((2,)) == []

    def test_in_flight_transactions_never_vacuumed(self):
        env, engine = make_engine()
        committed_update(engine, 1, key=1, value=1, ts=100)
        engine.begin(2)
        engine.update(2, "t", (1,), {"v": 2})  # uncommitted
        engine.heartbeat(10_000)
        engine.vacuum(retention_ns=1_000)
        # The uncommitted version and its predecessor (needed for abort /
        # visibility) both survive.
        assert engine.table("t").version_count() == 2
        engine.abort(2)
        assert engine.read("t", (1,), Snapshot(10_000))["v"] == 1

    def test_frozen_versions_remain_readable_after_clog_prune(self):
        env, engine = make_engine()
        committed_update(engine, 1, key=1, value=42, ts=100)
        engine.heartbeat(10_000)
        stats = engine.vacuum(retention_ns=1_000)
        assert stats.versions_frozen >= 1
        assert stats.clog_pruned >= 1
        assert not engine.clog.known(1)  # pruned
        assert engine.read("t", (1,), Snapshot(10_000))["v"] == 42
        # And the row is still updatable (latest-committed path works).
        engine.begin(5)
        assert engine.update(5, "t", (1,), {"v": 43}) is not None

    def test_vacuum_below_horizon_one_is_noop(self):
        env, engine = make_engine()
        committed_update(engine, 1, key=1, value=1, ts=100)
        stats = engine.vacuum(retention_ns=10_000)  # horizon < 0
        assert stats.versions_removed == 0
        assert stats.clog_pruned == 0

    def test_aborted_entries_pruned(self):
        env, engine = make_engine()
        committed_update(engine, 1, key=1, value=1, ts=100)
        engine.begin(2)
        engine.update(2, "t", (1,), {"v": 9})
        engine.abort(2)
        engine.heartbeat(10_000)
        engine.vacuum(retention_ns=1_000)
        assert not engine.clog.known(2)


class TestVacuumInCluster:
    def test_background_vacuum_bounds_version_growth(self):
        db = build_cluster(ClusterConfig.globaldb(
            one_region(), vacuum_interval_ns=200_000_000,
            vacuum_retention_ns=500_000_000))
        session = db.session()
        session.create_table("t", [("k", "int"), ("v", "int")],
                             primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1, "v": 0})
        session.commit()
        shard = db.shard_map.shard_for_key("t", (1,))
        primary = db.primaries[shard]
        for i in range(60):
            session.begin()
            session.update("t", (1,), {"v": i})
            session.commit()
            db.run_for(0.05)
        db.run_for(1.0)
        assert primary.vacuum_runs > 0
        # 61 versions were created; retention keeps only a recent window.
        assert primary.engine.table("t").version_count() < 20
        # Replicas vacuum too.
        replica = db.replicas[shard][0]
        assert replica.engine.table("t").version_count() < 20
        # Current data still correct everywhere.
        session.begin()
        assert session.read("t", (1,))["v"] == 59
        session.commit()
        row = session.read_only("t", (1,))
        assert row["v"] == 59

    def test_vacuum_disabled_grows_versions(self):
        # No vacuum pass falls inside this run: every version stays.
        db = build_cluster(ClusterConfig.globaldb(
            one_region(), vacuum_interval_ns=seconds(3600)))
        session = db.session()
        session.create_table("t", [("k", "int"), ("v", "int")],
                             primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1, "v": 0})
        session.commit()
        for i in range(30):
            session.begin()
            session.update("t", (1,), {"v": i})
            session.commit()
        shard = db.shard_map.shard_for_key("t", (1,))
        assert db.primaries[shard].engine.table("t").version_count() == 31
