"""Redo-gap detection and streaming catch-up after replica outages."""

from repro import ClusterConfig, build_cluster, one_region
from repro.storage.snapshot import Snapshot


def build_db_with_data():
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")],
                         primary_key=["k"])
    session.begin()
    for i in range(40):
        session.insert("t", {"k": i, "v": 0})
    session.commit()
    db.run_for(0.3)
    return db, session


def shard_keys(db, shard, count=40):
    return [k for k in range(count)
            if db.shard_map.shard_for_key("t", (k,)) == shard]


class TestCatchup:
    def test_recovered_replica_fills_its_gap(self):
        db, session = build_db_with_data()
        shard = 0
        victim = db.replicas[shard][0]
        keys = shard_keys(db, shard)
        assert keys, "shard 0 holds no test keys"
        victim.fail()
        # Commit a batch of updates the dead replica will miss entirely.
        for value, key in enumerate(keys):
            session.begin()
            session.update("t", (key,), {"v": 100 + value})
            session.commit()
        db.run_for(0.2)
        victim.recover()
        # New traffic arrives with a gap; the replica must fetch the
        # missing range rather than apply past it.
        session.begin()
        session.update("t", (keys[0],), {"v": 999})
        commit_ts = session.commit()
        db.run_for(0.5)
        assert victim.catchup_requests >= 1
        row = victim.engine.read("t", (keys[0],), Snapshot(commit_ts))
        assert row is not None and row["v"] == 999
        # And the previously-missed updates are all present too.
        for value, key in enumerate(keys[1:], start=1):
            row = victim.engine.read("t", (key,), Snapshot(commit_ts))
            assert row is not None and row["v"] == 100 + value

    def test_no_acks_for_non_contiguous_batches(self):
        """A gapped batch must not be acknowledged (a sync-table quorum
        would otherwise count data the replica does not actually have)."""
        db, session = build_db_with_data()
        shard = 0
        victim = db.replicas[shard][0]
        primary = db.primaries[shard]
        keys = shard_keys(db, shard)
        victim.fail()
        session.begin()
        session.update("t", (keys[0],), {"v": 1})
        session.commit()
        db.run_for(0.2)
        acked_while_down = primary.acks.acked[victim.name]
        victim.recover()
        session.begin()
        session.update("t", (keys[0],), {"v": 2})
        session.commit()
        target_lsn = primary.engine.wal.last_lsn  # before more heartbeats
        db.run_for(0.5)
        # After catch-up completes the ack frontier passes that point
        # (the very tail keeps moving with heartbeats, so compare against
        # the snapshot taken at commit time).
        assert primary.acks.acked[victim.name] >= target_lsn
        assert primary.acks.acked[victim.name] > acked_while_down

    def test_rcp_excludes_then_reincludes_recovering_replica(self):
        db, session = build_db_with_data()
        shard = 0
        victim = db.replicas[shard][0]
        keys = shard_keys(db, shard)
        victim.fail()
        session.begin()
        session.update("t", (keys[0],), {"v": 7})
        session.commit()
        db.run_for(0.3)
        rcp_during_outage = session.rcp
        victim.recover()
        session.begin()
        session.update("t", (keys[0],), {"v": 8})
        session.commit()
        db.run_for(0.5)
        # The replica caught up, so the (min-based) RCP moved on.
        assert session.rcp > rcp_during_outage
        assert victim.engine.max_commit_ts >= rcp_during_outage

    def test_consistency_preserved_through_outage_window(self):
        """Reads routed to the recovered replica never see the hole."""
        db, session = build_db_with_data()
        shard = 0
        victim = db.replicas[shard][0]
        keys = shard_keys(db, shard)
        victim.fail()
        session.begin()
        session.update("t", (keys[0],), {"v": 50})
        commit_ts = session.commit()
        db.run_for(0.2)
        victim.recover()
        db.run_for(0.6)
        # Direct read on the recovered replica at a snapshot covering the
        # missed commit: must show it (safe-time + catch-up), not a hole.
        row = victim.engine.read("t", (keys[0],), Snapshot(commit_ts))
        assert row is not None and row["v"] == 50
