"""Unit tests for replication: shipper, replayer, replica store, quorums."""

from repro.replication import AckTracker, LogShipper, ReplicationPolicy, ShipperConfig
from repro.replication.replayer import Replayer
from repro.replication.replica import ReplicaStore
from repro.sim import Environment, ms, us
from repro.sim.network import Network
from repro.storage import (
    ColumnDef,
    RedoCommit,
    RedoHeartbeat,
    RedoInsert,
    RedoPendingCommit,
    Snapshot,
    StorageEngine,
    TableSchema,
)


def schema():
    return TableSchema(name="t", columns=[ColumnDef("k", "int"),
                                          ColumnDef("v", "text")],
                       primary_key=("k",))


def make_pair(shipper_config=None, latency=ms(10)):
    env = Environment()
    network = Network(env)
    network.add_endpoint("primary", "east")
    network.add_endpoint("replica", "west")
    network.set_link("primary", "replica", latency_ns=latency)
    engine = StorageEngine(env, "primary")
    engine.create_table(schema())
    store = ReplicaStore(env, "replica")
    replayer = Replayer(env, store)

    def replica_handler(message):
        kind, _src, records = message.payload
        assert kind == "redo_batch"
        replayer.enqueue(records)
        network.send("replica", "primary",
                     ("redo_ack", "replica", records[-1].lsn), size_bytes=64)

    network.set_handler("replica", replica_handler)
    acks = AckTracker(env, "east", {"replica": "west"})

    def primary_handler(message):
        kind, name, lsn = message.payload
        assert kind == "redo_ack"
        acks.on_ack(name, lsn)

    network.set_handler("primary", primary_handler)
    shipper = LogShipper(env, network, engine.wal, "primary", "replica",
                         config=shipper_config or ShipperConfig.optimized())
    return env, network, engine, store, replayer, shipper, acks


def commit_row(engine, txid, key, value, ts):
    engine.begin(txid)
    engine.insert(txid, "t", {"k": key, "v": value})
    engine.log_pending_commit(txid)
    engine.commit(txid, ts)


class TestShipping:
    def test_records_reach_replica(self):
        env, _net, engine, store, _replayer, _shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        env.run(until=ms(50))
        assert store.read("t", (1,), Snapshot(100)) == {"k": 1, "v": "a"}
        assert store.max_commit_ts == 100

    def test_apply_is_idempotent_on_duplicate_lsn(self):
        env, _net, engine, store, replayer, _shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        env.run(until=ms(50))
        before = store.records_applied
        replayer.enqueue(engine.wal.records_from(0))  # duplicate catch-up
        env.run(until=ms(100))
        assert store.records_applied == before  # all duplicates skipped

    def test_flush_respects_interval(self):
        env, _net, engine, store, _replayer, shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        env.run(until=us(100))
        assert shipper.flushes == 0  # still inside the batching window
        env.run(until=ms(30))
        assert shipper.flushes >= 1

    def test_size_flush_withdraws_the_window_timer(self):
        # A batch that fills up flushes at once and takes its window timer
        # with it: what is appended next opens a full window of its own
        # instead of riding the old timer's remainder.
        config = ShipperConfig(transport=ShipperConfig.optimized().transport,
                               max_batch_bytes=600, flush_interval_ns=ms(1))
        env, _net, engine, _store, _rep, shipper, _acks = make_pair(config)
        env.run(until=ms(2))
        assert shipper.flushes == 1  # the CREATE TABLE record
        commit_row(engine, 1, 1, "a", ts=100)  # arms a timer for 3.0 ms
        env.run(until=us(2500))
        commit_row(engine, 2, 2, "v" * 600, ts=101)  # the insert overflows
        assert shipper.flushes == 2
        env.run(until=us(3400))  # past the withdrawn timer
        assert shipper.flushes == 2
        env.run(until=us(3510))  # txn 2's commit records: 2.5 ms + window
        assert shipper.flushes == 3
        # The WAL and the shipper read the one size stamped at append.
        assert shipper.payload_bytes_total == engine.wal.bytes_written

    def test_compression_reduces_wire_bytes(self):
        env, _net, engine, _store, _rep, shipper, _acks = make_pair(
            ShipperConfig.optimized())
        for i in range(50):
            commit_row(engine, i + 1, i, "v" * 100, ts=100 + i)
        env.run(until=ms(100))
        assert shipper.wire_bytes_total < shipper.payload_bytes_total
        assert shipper.compression_ratio_achieved() > 2.0

    def test_baseline_transport_ships_raw_bytes(self):
        env, _net, engine, _store, _rep, shipper, _acks = make_pair(
            ShipperConfig.baseline())
        for i in range(20):
            commit_row(engine, i + 1, i, "v" * 100, ts=100 + i)
        env.run(until=ms(100))
        assert shipper.wire_bytes_total == shipper.payload_bytes_total

    def test_paused_shipper_holds_records(self):
        env, _net, engine, store, _rep, shipper, _acks = make_pair()
        shipper.pause()
        commit_row(engine, 1, 1, "a", ts=100)
        env.run(until=ms(100))
        assert store.max_commit_ts == 0
        shipper.resume()
        env.run(until=ms(200))
        assert store.max_commit_ts == 100


class TestReplicaStore:
    def test_pending_commit_blocks_reader_until_resolution(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        # Manually apply an in-flight transaction's records.
        store.catalog.create_table(schema(), ddl_ts=0)
        store._tables["t"] = __import__(
            "repro.storage.heap", fromlist=["HeapTable"]).HeapTable("t")
        insert = RedoInsert(txid=9, table="t", key=(5,), row={"k": 5, "v": "x"})
        insert.lsn = 1
        pending = RedoPendingCommit(txid=9)
        pending.lsn = 2
        store.apply(insert)
        store.apply(pending)
        outcomes = []

        def reader():
            row = yield from store.read_waiting("t", (5,), Snapshot(10**15))
            outcomes.append((row, env.now))

        env.process(reader())
        env.run(until=ms(5))
        assert outcomes == []  # blocked on the unresolved transaction

        def resolver():
            yield env.timeout(ms(5))
            commit = RedoCommit(txid=9, commit_ts=123)
            commit.lsn = 3
            store.apply(commit)

        env.process(resolver())
        env.run(until=ms(50))
        assert outcomes == [({"k": 5, "v": "x"}, ms(10))]

    def test_abort_rolls_back_replica_state(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        engine.begin(2)
        engine.update(2, "t", (1,), {"v": "b"})
        engine.abort(2)
        env.run(until=ms(60))
        assert store.read("t", (1,), Snapshot(10**15)) == {"k": 1, "v": "a"}
        assert store.unresolved_count() == 0

    def test_heartbeat_advances_frontier_without_data(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        engine.heartbeat(5_000)
        env.run(until=ms(60))
        assert store.max_commit_ts == 5_000

    def test_two_phase_records_replay(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        engine.begin(3)
        engine.insert(3, "t", {"k": 7, "v": "p"})
        engine.prepare(3)
        env.run(until=ms(40))
        assert store.unresolved_count() == 1  # prepared, in doubt
        engine.commit_prepared(3, commit_ts=200)
        env.run(until=ms(100))
        assert store.unresolved_count() == 0
        assert store.read("t", (7,), Snapshot(200)) is not None

    def test_replica_update_chains_versions(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        engine.begin(2)
        engine.update(2, "t", (1,), {"v": "b"})
        engine.log_pending_commit(2)
        engine.commit(2, 200)
        env.run(until=ms(100))
        assert store.read("t", (1,), Snapshot(150))["v"] == "a"
        assert store.read("t", (1,), Snapshot(200))["v"] == "b"

    def test_replica_delete(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        engine.begin(2)
        engine.delete(2, "t", (1,))
        engine.log_pending_commit(2)
        engine.commit(2, 200)
        env.run(until=ms(100))
        assert store.read("t", (1,), Snapshot(150)) is not None
        assert store.read("t", (1,), Snapshot(250)) is None


class TestReplayer:
    def test_replay_costs_time(self):
        env = Environment()
        store = ReplicaStore(env, "r")
        replayer = Replayer(env, store, apply_ns_per_record=us(10), parallelism=1)
        records = []
        for i in range(100):
            record = RedoHeartbeat(txid=0, commit_ts=i + 1)
            record.lsn = i + 1
            records.append(record)
        replayer.enqueue(records)
        env.run(until=us(500))
        assert store.max_commit_ts == 0  # still applying (needs 1 ms)
        env.run(until=ms(2))
        assert store.max_commit_ts == 100

    def test_parallelism_speeds_up_replay(self):
        def replay_time(parallelism):
            env = Environment()
            store = ReplicaStore(env, "r")
            replayer = Replayer(env, store, apply_ns_per_record=us(10),
                                parallelism=parallelism)
            records = []
            for i in range(1000):
                record = RedoHeartbeat(txid=0, commit_ts=i + 1)
                record.lsn = i + 1
                records.append(record)
            replayer.enqueue(records)
            env.run()
            return env.now

        assert replay_time(8) * 4 < replay_time(1)


class TestQuorum:
    def test_async_policy_never_waits(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "east", "r2": "west"})
        event = tracker.wait_for(100, ReplicationPolicy.async_())
        assert event.triggered

    def test_quorum_waits_for_k_acks(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "east", "r2": "west"})
        event = tracker.wait_for(10, ReplicationPolicy.quorum(2))
        assert not event.triggered
        tracker.on_ack("r1", 10)
        assert not event.triggered
        tracker.on_ack("r2", 15)
        assert event.triggered

    def test_same_city_quorum_ignores_remote_acks(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "east", "r2": "west"})
        event = tracker.wait_for(10, ReplicationPolicy.same_city_quorum(1))
        tracker.on_ack("r2", 99)  # remote ack: not sufficient
        assert not event.triggered
        tracker.on_ack("r1", 10)
        assert event.triggered

    def test_remote_quorum_requires_cross_region_ack(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "east", "r2": "west"})
        event = tracker.wait_for(10, ReplicationPolicy.remote_quorum(1))
        tracker.on_ack("r1", 10)  # same region only
        assert not event.triggered
        tracker.on_ack("r2", 10)
        assert event.triggered

    def test_already_satisfied_quorum_fires_immediately(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "east"})
        tracker.on_ack("r1", 50)
        event = tracker.wait_for(40, ReplicationPolicy.quorum(1))
        assert event.triggered

    def test_stale_ack_does_not_regress(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "east"})
        tracker.on_ack("r1", 50)
        tracker.on_ack("r1", 30)
        assert tracker.acked["r1"] == 50


class TestEndToEndSyncCommit:
    def test_sync_commit_waits_for_replica_ack(self):
        env, _net, engine, _store, _rep, _shipper, acks = make_pair(latency=ms(20))
        commit_row(engine, 1, 1, "a", ts=100)
        lsn = engine.wal.last_lsn
        event = acks.wait_for(lsn, ReplicationPolicy.quorum(1))
        assert not event.triggered

        def waiter():
            yield event
            return env.now

        when = env.run(until=env.process(waiter()))
        # One-way shipping (>=20ms incl. batching) plus the ack trip back.
        assert when >= ms(40)
