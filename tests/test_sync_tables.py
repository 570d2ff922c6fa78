"""Per-table synchronous replication (the paper's future-work feature:
sync replicated tables coexisting with async tables)."""

from repro import (
    ClusterConfig,
    ColumnDef,
    TableSchema,
    build_cluster,
    two_region,
)
from repro.sim.units import ms, ns_to_ms
from repro.storage.snapshot import Snapshot


def build_db():
    db = build_cluster(ClusterConfig.globaldb(two_region(latency=ms(30))))
    db.create_table_offline(TableSchema(
        "t_async", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
    db.create_table_offline(TableSchema(
        "t_sync", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",),
        sync_replication=True))
    return db


def commit_latency_ms(db, session, table, key):
    start = db.env.now
    session.begin()
    session.insert(table, {"k": key, "v": 1})
    session.commit()
    return ns_to_ms(db.env.now - start)


def local_key(db, session, table, start_from=0):
    """A key homed on a shard whose primary is in the session's region
    (so latency measurements isolate replication, not routing)."""
    for key in range(start_from, start_from + 500):
        shard = db.shard_map.shard_for_key(table, (key,))
        if db.primaries[shard].region == session.cn.region:
            return key
    raise AssertionError("no local key found")


class TestSyncTables:
    def test_sync_table_commit_waits_for_replica_acks(self):
        db = build_db()
        session = db.session()
        async_ms = commit_latency_ms(db, session, "t_async",
                                     local_key(db, session, "t_async"))
        sync_ms = commit_latency_ms(db, session, "t_sync",
                                    local_key(db, session, "t_sync"))
        assert async_ms < 5
        assert sync_ms >= 30  # waited on the 30 ms-away replica's ack

    def test_sync_table_data_on_replicas_at_commit_return(self):
        """The point of the feature: when the commit returns, every
        replica has (at least persisted) the data — reads are maximally
        fresh."""
        db = build_db()
        session = db.session()
        session.begin()
        session.insert("t_sync", {"k": 7, "v": 7})
        commit_ts = session.commit()
        shard = db.shard_map.shard_for_key("t_sync", (7,))
        # Acked means persisted; give the replayer its (tiny) apply time.
        db.env.run_for(ms(1))
        for replica in db.replicas[shard]:
            row = replica.engine.read("t_sync", (7,), Snapshot(commit_ts))
            assert row == {"k": 7, "v": 7}

    def test_async_tables_unaffected_by_sync_neighbours(self):
        db = build_db()
        session = db.session()
        commit_latency_ms(db, session, "t_sync",
                          local_key(db, session, "t_sync"))
        assert commit_latency_ms(
            db, session, "t_async",
            local_key(db, session, "t_async", start_from=100)) < 5

    def test_mixed_transaction_takes_sync_path(self):
        """A transaction touching both table kinds must wait: the sync
        table's guarantee dominates."""
        db = build_db()
        session = db.session()
        # Find keys co-located on one shard so the commit is single-shard.
        shard_of = db.shard_map.shard_for_key
        k_async = next(k for k in range(100)
                       if shard_of("t_async", (k,)) == 0)
        k_sync = next(k for k in range(100)
                      if shard_of("t_sync", (k,)) == 0)
        start = db.env.now
        session.begin()
        session.insert("t_async", {"k": k_async, "v": 1})
        session.insert("t_sync", {"k": k_sync, "v": 1})
        session.commit()
        assert ns_to_ms(db.env.now - start) >= 30

    def test_session_create_table_flag(self):
        db = build_cluster(ClusterConfig.globaldb(two_region(latency=ms(30))))
        session = db.session()
        session.create_table("audit", [("k", "int"), ("v", "int")],
                             primary_key=["k"], sync_replication=True)
        assert db.shard_map.schema("audit").sync_replication
        start = db.env.now
        session.begin()
        session.insert("audit", {"k": 1, "v": 1})
        session.commit()
        assert ns_to_ms(db.env.now - start) >= 30

    def test_two_phase_commit_respects_sync_tables(self):
        db = build_db()
        session = db.session()
        shard_of = db.shard_map.shard_for_key
        k1 = next(k for k in range(100) if shard_of("t_sync", (k,)) == 0)
        k2 = next(k for k in range(100) if shard_of("t_sync", (k,)) == 1)
        start = db.env.now
        session.begin()
        session.insert("t_sync", {"k": k1, "v": 1})
        session.insert("t_sync", {"k": k2, "v": 1})
        session.commit()
        assert ns_to_ms(db.env.now - start) >= 30
