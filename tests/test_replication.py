"""Unit tests for replication: shipper, replayer, replica store, quorums."""

from repro import ClusterConfig, build_cluster, three_city
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
        network.send("replica", "primary",
                     ("redo_ack", "replica", records[-1].lsn), size_bytes=64)
        replayer.enqueue(records)  # may resume the replayer: last action

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

    def test_resolution_nobody_waits_for_schedules_nothing(self):
        env, _net, _engine, store, _rep, _shipper, _acks = make_pair()
        before = env.events_scheduled
        records = [RedoPendingCommit(txid=9), RedoCommit(txid=9, commit_ts=123)]
        for lsn, record in enumerate(records, start=1):
            record.lsn = lsn
        store.apply(records[0])
        assert len(store._unresolved) == 1
        store.apply(records[1])
        assert len(store._unresolved) == 0
        assert env.events_scheduled == before

    def test_abort_rolls_back_replica_state(self):
        env, _net, engine, store, _rep, _shipper, _acks = make_pair()
        commit_row(engine, 1, 1, "a", ts=100)
        engine.begin(2)
        engine.update(2, "t", (1,), {"v": "b"})
        engine.abort(2)
        env.run(until=ms(60))
        assert store.read("t", (1,), Snapshot(10**15)) == {"k": 1, "v": "a"}
        assert len(store._unresolved) == 0

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
        assert len(store._unresolved) == 1  # prepared, in doubt
        engine.commit_prepared(3, commit_ts=200)
        env.run(until=ms(100))
        assert len(store._unresolved) == 0
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

    def test_backlog_does_not_widen_replay(self):
        # The cost model is the configured parallelism, however far behind
        # the replica is: 1 000 records at 3 us on 8 workers take 375 us.
        env = Environment()
        store = ReplicaStore(env, "r")
        replayer = Replayer(env, store, apply_ns_per_record=us(3),
                            parallelism=8)
        records = []
        for i in range(1000):
            record = RedoHeartbeat(txid=0, commit_ts=i + 1)
            record.lsn = i + 1
            records.append(record)
        replayer.enqueue(records)
        env.run()
        assert store.applied_lsn == 1000
        assert env.now == round(1000 * us(3) / 8)


    def test_a_cleared_queue_leaves_no_head_waited_out(self):
        # A row-only batch taken on arrival charges 10 us; a heartbeat
        # queued meanwhile wakes the replayer when its own replay would
        # end (21 us). A rebuild drops it, so the batch that arrives next
        # is timed from that wake-up, not taken as already waited out.
        env = Environment()
        store = ReplicaStore(env, "r")
        store.create_table(schema(), log=False)
        replayer = Replayer(env, store, apply_ns_per_record=us(10),
                            parallelism=1)
        rows = RedoInsert(txid=1, table="t", key=(1,),
                          row={"k": 1, "v": "a"}, lsn=1)
        dropped = RedoHeartbeat(txid=0, commit_ts=5, lsn=2)
        kept = RedoHeartbeat(txid=0, commit_ts=7, lsn=3)
        env.defer(us(1), lambda _: replayer.enqueue([rows]), None)
        env.defer(us(5), lambda _: replayer.enqueue([dropped]), None)
        env.defer(us(6), lambda _: replayer.clear(), None)
        env.defer(us(7), lambda _: replayer.enqueue([kept]), None)
        env.run(until=us(30))
        assert store.applied_lsn == 1 and replayer.backlog_batches == 0
        assert store.max_commit_ts == 0  # started at 21 us, not done
        env.run(until=us(31))
        assert store.max_commit_ts == 7


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
        event = tracker.wait_for(10, ReplicationPolicy(kind="same_city", count=1))
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

    @staticmethod
    def commits_waiting_on(env, tracker, names):
        """Serve one sync commit per name, each waiting for LSN 10; a
        resumed commit logs its name and the time, and returns without
        pushing anything."""
        resumed = []

        def commit(name):
            yield tracker.wait_for(10, ReplicationPolicy.remote_quorum(1))
            resumed.append((name, env.now))

        for name in names:
            env.serve(commit(name))
        return resumed

    @staticmethod
    def ack(env, tracker, resumed, seen):
        """r1's ack for LSN 10; logs (commits resumed inside the call,
        entries it pushed)."""
        before = env.events_scheduled
        tracker.on_ack("r1", 10)
        seen.append((list(resumed), env.events_scheduled - before))

    def test_an_ack_that_satisfies_one_commit_resumes_it_in_place(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "west"})
        resumed = self.commits_waiting_on(env, tracker, ["a"])
        seen = []
        # The ack is the only entry of its tick.
        env.defer(us(5), lambda _: self.ack(env, tracker, resumed, seen), None)
        env.run()
        assert seen == [([("a", us(5))], 0)]

    def test_an_ack_that_satisfies_two_commits_pushes_both_in_order(self):
        env = Environment()
        tracker = AckTracker(env, "east", {"r1": "west"})
        resumed = self.commits_waiting_on(env, tracker, ["a", "b"])
        seen = []
        env.defer(us(5), lambda _: self.ack(env, tracker, resumed, seen), None)
        env.run()
        assert seen == [([], 2)]
        assert resumed == [("a", us(5)), ("b", us(5))]


def quiet_three_city():
    """An idle Three-City cluster (no ROR control plane), and shard 0's
    primary and two replicas, which sit in the two other cities."""
    db = build_cluster(ClusterConfig.globaldb(three_city(),
                                              ror_enabled=False))
    db.run_for(0.3)
    return db, db.primaries[0], db.replicas[0]


def watch_batches(replica, share_the_tick=False):
    """Wrap ``replica``'s notice handler; for each redo batch it receives,
    log (entries pushed while handling it, batches still queued at the
    replayer afterwards). With ``share_the_tick``, queue one entry for the
    same instant first, so the batch's delivery does not end its tick."""
    env = replica.env
    handle = replica._on_notice
    log = []

    def watched(payload, message):
        if payload[0] != "redo_batch":
            return handle(payload, message)
        if share_the_tick:
            env.defer(0, log.append, "behind")
        before = env.events_scheduled
        handle(payload, message)
        log.append((env.events_scheduled - before,
                    replica.replayer.backlog_batches))

    replica._on_notice = watched
    return log


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

    def test_a_lone_redo_batch_resumes_its_replayer_in_place(self):
        db, primary, (replica, _other) = quiet_three_city()
        log = watch_batches(replica)
        primary.engine.heartbeat(12345)
        db.run_for(0.3)
        # The ack and the replay timer; the replayer took the batch.
        assert log == [(2, 0)]
        assert replica.engine.max_commit_ts == 12345

    def test_a_redo_batch_that_shares_its_tick_is_pushed(self):
        db, primary, (replica, _other) = quiet_three_city()
        log = watch_batches(replica, share_the_tick=True)
        primary.engine.heartbeat(12345)
        db.run_for(0.3)
        # The ack and the wake-up; the batch waits for the wake-up, which
        # runs after the entry queued behind the delivery.
        assert log == [(2, 1), "behind"]
        assert replica.engine.max_commit_ts == 12345

    def test_one_record_flush_to_two_replicas_costs_seven_entries(self):
        """One shared flush timer, two batch deliveries, two replay timers
        and two ack deliveries: both wake-ups are granted in place, and no
        commit waits on the acks."""
        db, primary, replicas = quiet_three_city()
        env = db.env
        before = env.events_scheduled
        primary.engine.heartbeat(12345)
        db.run_for(0.3)
        assert env.events_scheduled - before == 1 + 2 + 2 + 2
        lsn = primary.engine.wal.last_lsn
        assert primary.acks.acked == {replica.name: lsn
                                      for replica in replicas}
        assert all(replica.replayer.batches_replayed for replica in replicas)


def acks_received(primary):
    """Wrap ``primary``'s notice handler; log each ``redo_ack`` it gets as
    (replica, acked LSN, applied LSN)."""
    handle = primary._on_notice
    log = []

    def watched(payload, message):
        if payload[0] == "redo_ack":
            log.append(payload[1:])
        return handle(payload, message)

    primary._on_notice = watched
    return log


def quiet_shard_with_table(config):
    """``config``'s cluster with one table and the shard of key 1: its
    primary, its replicas and the keys it holds."""
    db = build_cluster(config)
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")],
                         primary_key=["k"])
    db.run_for(0.3)
    shard = db.shard_map.shard_for_key("t", (1,))
    keys = [k for k in range(1, 200)
            if db.shard_map.shard_for_key("t", (k,)) == shard]
    return db, session, db.primaries[shard], db.replicas[shard], keys


class TestRowChangeBatches:
    """A batch of row changes only is neither acked nor timed: no commit
    waits on its LSNs and no reader can see it."""

    def test_a_row_only_batch_sends_no_ack(self):
        db, _session, primary, replicas, keys = quiet_shard_with_table(
            ClusterConfig.globaldb(three_city(), ror_enabled=False))
        acks = acks_received(primary)
        engine = primary.engine
        engine.clog.ensure(77)
        engine.insert(77, "t", {"k": keys[0], "v": 1})
        engine.insert(77, "t", {"k": keys[1], "v": 2})
        db.run_for(0.3)
        assert acks == []
        lsn = engine.wal.last_lsn
        for replica in replicas:
            assert replica._enqueued_lsn == lsn
            assert replica.engine.applied_lsn == lsn

    def test_the_next_acked_batch_covers_the_row_only_prefix(self):
        db, _session, primary, replicas, keys = quiet_shard_with_table(
            ClusterConfig.globaldb(three_city(), ror_enabled=False))
        acks = acks_received(primary)
        engine = primary.engine
        engine.clog.ensure(77)
        engine.insert(77, "t", {"k": keys[0], "v": 1})
        db.run_for(0.3)
        rows_lsn = engine.wal.last_lsn
        engine.log_pending_commit(77)
        engine.commit(77, engine.max_commit_ts + 1)
        db.run_for(0.3)
        lsn = engine.wal.last_lsn
        # One ack per replica: the whole prefix received, and the row
        # changes replayed before the commit batch arrived.
        assert sorted(name for name, _acked, _applied in acks) == \
            sorted(replica.name for replica in replicas)
        assert all(acked == lsn and applied >= rows_lsn
                   for _name, acked, applied in acks)

    def test_a_lone_row_only_batch_is_applied_on_arrival(self):
        db, _session, primary, (replica, _other), keys = \
            quiet_shard_with_table(
                ClusterConfig.globaldb(three_city(), ror_enabled=False))
        log = watch_batches(replica)
        engine = primary.engine
        engine.clog.ensure(77)
        engine.insert(77, "t", {"k": keys[0], "v": 1})
        db.run_for(0.3)
        # No ack, no replay timer and no wake-up was pushed, so the
        # delivery itself applied the batch.
        assert log == [(0, 0)]
        assert replica.engine.applied_lsn == engine.wal.last_lsn

    def test_a_heartbeat_only_batch_is_acked(self):
        db, primary, replicas = quiet_three_city()
        acks = acks_received(primary)
        primary.engine.heartbeat(12345)
        db.run_for(0.3)
        lsn = primary.engine.wal.last_lsn
        assert sorted(name for name, acked, _applied in acks
                      if acked == lsn) == sorted(r.name for r in replicas)

    def test_remote_quorum_commit_completes_after_replicas_caught_up(self):
        db, session, primary, replicas, keys = quiet_shard_with_table(
            ClusterConfig.baseline(three_city()))
        acks = acks_received(primary)
        session.begin()
        for replica in replicas:
            replica.fail()
        session.insert("t", {"k": keys[0], "v": 1})  # lost on the way
        db.run_for(0.3)
        for replica in replicas:
            replica.recover()
        session.insert("t", {"k": keys[1], "v": 2})  # arrives past a gap
        session.commit()
        lsn = primary.engine.wal.last_lsn
        assert all(replica.catchup_requests >= 1 for replica in replicas)
        assert any(acked == lsn for _name, acked, _applied in acks)
        db.run_for(0.3)
        for replica in replicas:
            assert replica.engine.applied_lsn == lsn
            assert replica.engine.read("t", (keys[1],), Snapshot(
                replica.engine.max_commit_ts)) == {"k": keys[1], "v": 2}
