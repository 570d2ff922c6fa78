"""Network partitions: drops, stalls, and recovery with catch-up."""

import pytest

from repro import ClusterConfig, TransactionAborted, build_cluster, three_city
from repro.sim import Environment, ms
from repro.sim.network import Network


class TestPartitionPrimitive:
    def test_blocked_link_drops_messages(self):
        env = Environment()
        net = Network(env)
        net.add_endpoint("a", "east")
        net.add_endpoint("b", "west")
        net.set_link("a", "b", latency_ns=ms(1))
        received = []
        net.set_handler("b", lambda msg: received.append(msg.payload))
        net.set_partition("east", "west")
        net.send("a", "b", "lost")
        env.run()
        assert received == []
        assert net.messages_dropped == 1

    def test_heal_restores_delivery(self):
        env = Environment()
        net = Network(env)
        net.add_endpoint("a", "east")
        net.add_endpoint("b", "west")
        net.set_link("a", "b", latency_ns=ms(1))
        received = []
        net.set_handler("b", lambda msg: received.append(msg.payload))
        net.set_partition("east", "west")
        net.send("a", "b", "lost")
        net.set_partition("east", "west", blocked=False)
        net.send("a", "b", "found")
        env.run()
        assert received == ["found"]

    def test_partition_is_bidirectional(self):
        env = Environment()
        net = Network(env)
        net.add_endpoint("a", "east")
        net.add_endpoint("b", "west")
        net.set_link("a", "b", latency_ns=ms(1))
        net.set_partition("east", "west")
        assert net.link("a", "b").blocked
        assert net.link("b", "a").blocked

    def test_third_region_unaffected(self):
        env = Environment()
        net = Network(env)
        net.add_endpoint("a", "east")
        net.add_endpoint("b", "west")
        net.add_endpoint("c", "north")
        net.set_partition("east", "west")
        assert not net.link("a", "c").blocked
        assert not net.link("b", "c").blocked


class TestClusterUnderPartition:
    def build(self):
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        session = db.session(region="xian")
        session.create_table("t", [("k", "int"), ("v", "int")],
                             primary_key=["k"])
        session.begin()
        for i in range(30):
            session.insert("t", {"k": i, "v": 0})
        session.commit()
        db.run_for(0.3)
        return db, session

    def local_key(self, db, region):
        for key in range(30):
            shard = db.shard_map.shard_for_key("t", (key,))
            if db.primaries[shard].region == region:
                return key
        raise AssertionError("no local key")

    def test_local_work_survives_remote_partition(self):
        """Xi'an <-> Dongguan is cut; a Xi'an client's local transactions
        keep committing (async replication means no remote dependency)."""
        db, session = self.build()
        db.network.set_partition("xian", "dongguan")
        key = self.local_key(db, "xian")
        session.begin()
        session.update("t", (key,), {"v": 1})
        ts = session.commit()
        assert ts > 0

    def test_cross_partition_write_aborts_cleanly(self):
        db, session = self.build()
        db.network.set_partition("xian", "dongguan")
        key = self.local_key(db, "dongguan")
        session.begin()
        with pytest.raises(TransactionAborted):
            session.update("t", (key,), {"v": 1})

    def test_rcp_stalls_during_partition_then_recovers(self):
        """Replicas behind the cut stop applying; the RCP (a min) stalls —
        consistency preserved — and resumes after healing via catch-up."""
        db, session = self.build()
        db.network.set_partition("xian", "dongguan")
        key = self.local_key(db, "xian")
        for i in range(5):
            session.begin()
            session.update("t", (key,), {"v": i})
            session.commit()
            db.run_for(0.1)
        stalled = session.rcp
        db.run_for(0.5)
        assert session.rcp == stalled  # frozen by the cut-off replicas
        db.network.set_partition("xian", "dongguan", blocked=False)
        db.run_for(1.0)
        assert session.rcp > stalled  # catch-up refilled the gap

    def test_replicas_behind_cut_catch_up_consistently(self):
        db, session = self.build()
        key = self.local_key(db, "xian")
        shard = db.shard_map.shard_for_key("t", (key,))
        cut_replica = next(replica for replica in db.replicas[shard]
                           if replica.region == "dongguan")
        db.network.set_partition("xian", "dongguan")
        session.begin()
        session.update("t", (key,), {"v": 77})
        commit_ts = session.commit()
        db.run_for(0.3)
        db.network.set_partition("xian", "dongguan", blocked=False)
        db.run_for(1.0)
        from repro.storage.snapshot import Snapshot
        row = cut_replica.engine.read("t", (key,), Snapshot(commit_ts))
        assert row is not None and row["v"] == 77
        assert cut_replica.catchup_requests >= 1
