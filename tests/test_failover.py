"""Primary-failure and promotion tests (§IV's availability story)."""

import pytest

from repro import ClusterConfig, TransactionAborted, build_cluster, one_region, three_city
from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.sim.units import ms
from repro.storage import (ColumnDef, RedoDdl, RedoInsert, RedoPendingCommit,
                           TableSchema, TxnStatus)


def build_failover_db(topology=None, **overrides):
    overrides.setdefault("auto_failover", True)
    overrides.setdefault("failover_grace_ns", ms(200))
    return build_cluster(ClusterConfig.globaldb(topology or one_region(),
                                                **overrides))


LOADED_ROWS = 48


def load_accounts(db, rows=LOADED_ROWS):
    session = db.session()
    session.create_table("accounts", [("id", "int"), ("balance", "int")],
                         primary_key=["id"])
    session.begin()
    for i in range(rows):
        session.insert("accounts", {"id": i, "balance": 100})
    session.commit()
    db.run_for(0.3)
    return session


def key_on_shard(db, shard):
    """A *loaded* key homed on ``shard``."""
    for i in range(LOADED_ROWS):
        if db.shard_map.shard_for_key("accounts", (i,)) == shard:
            return i
    raise AssertionError("no loaded key found for shard")


class TestReplicaServiceDuringOutage:
    def test_reads_survive_primary_failure_without_promotion(self):
        """Paper: replicas keep serving read-only queries while the primary
        is down (even before/without promotion)."""
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        load_accounts(db)
        victim_shard = 0
        db.primaries[victim_shard].fail()
        db.run_for(0.4)  # metrics notice
        key = key_on_shard(db, victim_shard)
        reader = db.session(region=db.primaries[1].region)
        row = reader.read_only("accounts", (key,))
        assert row is not None and row["balance"] == 100

    def test_writes_to_dead_primary_abort_not_hang(self):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        session = load_accounts(db)
        victim_shard = 2
        db.primaries[victim_shard].fail()
        key = key_on_shard(db, victim_shard)
        session.begin()
        with pytest.raises(TransactionAborted):
            session.update("accounts", (key,), {"balance": 1})
        assert not session.in_txn  # the abort cleaned up the context


class TestPromotion:
    def test_promotion_restores_writes(self):
        db = build_failover_db()
        session = load_accounts(db)
        victim_shard = 1
        old_primary = db.primaries[victim_shard]
        old_name = old_primary.name
        old_primary.fail()
        db.run_for(1.5)  # grace + promotion + placement push
        assert db.failover.events, "no failover event recorded"
        event = db.failover.events[0]
        assert event.shard == victim_shard
        assert event.old_primary == old_name
        new_primary = db.primaries[victim_shard]
        assert new_primary.name != old_name
        assert new_primary.is_primary
        # Writes to the shard work again.
        key = key_on_shard(db, victim_shard)
        session.begin()
        session.update("accounts", (key,), {"balance": 555})
        session.commit()
        session.begin()
        assert session.read("accounts", (key,))["balance"] == 555
        session.commit()

    def test_promotion_picks_most_caught_up_replica(self):
        db = build_failover_db()
        load_accounts(db)
        victim_shard = 0
        # Handicap one replica: pause its shipping so it lags.
        laggard = db.replicas[victim_shard][0]
        for shipper in db.shippers:
            if shipper.dst == laggard.name:
                shipper.pause()
        session = db.session()
        key = key_on_shard(db, victim_shard)
        for value in range(5):
            session.begin()
            session.update("accounts", (key,), {"balance": value})
            session.commit()
        db.run_for(0.3)
        db.primaries[victim_shard].fail()
        db.run_for(1.5)
        event = db.failover.events[0]
        assert event.new_primary != laggard.name

    def test_surviving_replicas_rebuilt_and_replicating(self):
        db = build_failover_db()
        session = load_accounts(db)
        victim_shard = 1
        db.primaries[victim_shard].fail()
        db.run_for(1.5)
        key = key_on_shard(db, victim_shard)
        session.begin()
        session.update("accounts", (key,), {"balance": 777})
        commit_ts = session.commit()
        db.run_for(1.0)
        for replica in db.replicas[victim_shard]:
            if replica.failed:
                continue
            from repro.storage.snapshot import Snapshot
            row = replica.engine.read("accounts", (key,), Snapshot(commit_ts))
            assert row is not None and row["balance"] == 777

    def test_rcp_recovers_after_promotion(self):
        db = build_failover_db()
        session = load_accounts(db)
        db.primaries[0].fail()
        db.run_for(1.5)
        rcp_before = session.rcp
        db.run_for(0.5)
        assert session.rcp > rcp_before

    def test_async_failover_can_lose_tail_commits(self):
        """The paper's acknowledged trade-off: asynchronous replication can
        lose the unreplicated tail on failover. Stop shipping entirely,
        commit, kill the primary: the committed value must be gone after
        promotion — and the event must report the loss window."""
        db = build_failover_db()
        session = load_accounts(db)
        victim_shard = 0
        key = key_on_shard(db, victim_shard)
        for shipper in db.shippers:
            if shipper.src == db.primaries[victim_shard].name:
                shipper.pause()
        session.begin()
        session.update("accounts", (key,), {"balance": 12345})
        session.commit()
        db.primaries[victim_shard].fail()
        db.run_for(1.5)
        event = db.failover.events[0]
        assert event.lost_commit_ts_window > 0
        reader = db.session()
        row = reader.read_only("accounts", (key,))
        assert row["balance"] == 100  # the tail write is gone

    def test_no_promotion_when_all_replicas_dead(self):
        db = build_failover_db()
        load_accounts(db)
        for replica in db.replicas[0]:
            replica.fail()
        db.primaries[0].fail()
        db.run_for(1.5)
        assert not db.failover.events
        assert db.primaries[0].failed  # shard simply stays down

    def test_in_doubt_transactions_aborted_on_promotion(self):
        """A transaction mid-commit when the primary dies is in doubt on
        the replica (PENDING_COMMIT replayed, outcome lost): promotion
        aborts it and readers unblock."""
        db = build_failover_db()
        load_accounts(db)
        victim_shard = 0
        key = key_on_shard(db, victim_shard)
        primary = db.primaries[victim_shard]
        # Forge the in-doubt state: pending logged, no outcome, then death.
        txid = 999_999
        primary.engine.begin(txid)
        primary.engine.update(txid, "accounts", (key,), {"balance": 1})
        primary.engine.log_pending_commit(txid)
        db.run_for(0.3)  # records reach replicas
        primary.fail()
        db.run_for(1.5)
        event = db.failover.events[0]
        assert event.in_doubt_aborted >= 1
        reader = db.session()
        row = reader.read_only("accounts", (key,))
        assert row["balance"] == 100  # the in-doubt write rolled back


class TestRoleFlip:
    """Promotion keeps the replica's store and changes its role; a rebuild
    gives the replica a store of its own."""

    def test_promotion_keeps_the_replayed_store(self):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        load_accounts(db)
        replica = db.replicas[1][0]
        store = replica.replayer.store
        applied = store.applied_lsn
        assert replica.engine is store and applied > 0
        replica.promote_to_primary()
        assert replica.is_primary and replica.replayer is None
        assert replica.engine is store
        assert store.wal.start_lsn == applied + 1
        assert store.heartbeat(store.max_commit_ts) == applied + 1

    def test_promotion_rolls_back_only_the_in_doubt(self):
        """In-doubt writes are undone. Writes of a transaction short of its
        commit window stay, as orphans: the new primary never began that
        transaction, so its undo map has nothing for it."""
        store = ReplicaStore(Environment(), "dn0r0")
        schema = TableSchema(name="t", columns=[ColumnDef("k", "int")],
                             primary_key=("k",))
        records = [RedoDdl(txid=0, action="create_table", table="t",
                           payload=schema, commit_ts=1),
                   RedoInsert(txid=5, table="t", key=(1,), row={"k": 1}),
                   RedoInsert(txid=6, table="t", key=(2,), row={"k": 2}),
                   RedoPendingCommit(txid=6)]
        for lsn, record in enumerate(records, start=1):
            record.lsn = lsn
        store.apply_batch(records)
        assert store.promote() == 1
        assert store.clog.status(6) is TxnStatus.ABORTED
        assert store.table("t").versions((2,)) == []
        assert store.tables_written(5) == set()
        store.abort(5)
        assert [v.xmin for v in store.table("t").versions((1,))] == [5]

    def test_promoted_primary_continues_a_replayed_transaction(self):
        """A CN may continue a transaction whose write reached the replica
        before the failover and whose commit did not. The promoted primary
        knows the txid from replay but never began it; the next update
        still records its undo and answers ``ok``."""
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        load_accounts(db)
        key = key_on_shard(db, 1)
        primary, promoted = db.primaries[1], db.replicas[1][0]
        txid = 777_777
        primary.engine.begin(txid)
        primary.engine.update(txid, "accounts", (key,), {"balance": 1})
        db.run_for(0.3)  # the write reaches the replicas
        primary.fail()
        promoted.promote_to_primary()
        request = db.network.request(
            db.cns[0].name, promoted.name,
            ("update", txid, "accounts", (key,), {"balance": 2}))
        db.run_for(0.1)  # no exception leaves the data node's dispatch
        assert request.ok
        assert request.value == ("ok", {"id": key, "balance": 2})
        assert promoted.engine.tables_written(txid) == {"accounts"}

    def test_rebuilt_replica_shares_no_storage_with_its_source(self):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        load_accounts(db)
        promoted, rebuilt = db.replicas[1]
        promoted.promote_to_primary()
        old_store = rebuilt.engine
        rebuilt.rebuild_replica_from(promoted)
        source, copy = promoted.engine, rebuilt.engine
        assert copy is not old_store and copy is not source
        assert copy.applied_lsn == source.wal.last_lsn
        assert copy.max_commit_ts == source.max_commit_ts

        def objects(store):
            heaps = [store.table(name) for name in store.catalog.tables()]
            chains = [heap.versions(key) for heap in heaps
                      for key in heap.keys()]
            versions = [version for chain in chains for version in chain]
            records = list(store.clog._records.values())
            return heaps, chains, versions, records

        def by_value(store):
            return ([(name, [(key, [(v.xmin, v.xmax, v.data)
                                    for v in store.table(name).versions(key)])
                             for key in store.table(name).keys()])
                     for name in store.catalog.tables()],
                    [(txid, store.clog.status(txid), store.clog.commit_ts(txid))
                     for txid in store.clog._records])

        assert by_value(copy) == by_value(source)
        for ours, theirs in zip(objects(source), objects(copy)):
            assert theirs and len(theirs) == len(ours)
            assert not {id(o) for o in ours} & {id(o) for o in theirs}


class TestPromotionRcpGuard:
    def test_stale_promoted_replica_covers_advertised_rcp(self):
        """ROR safety on failover: CNs advertise strongly-consistent
        replica reads up to their RCP. If the only surviving replica was
        partitioned while the RCP advanced past its redo frontier,
        promotion must advance the new primary's frontier to the
        advertised RCP (redo heartbeat) so the shard group never claims
        less coverage than clients were already promised."""
        db = build_failover_db(three_city())
        session = load_accounts(db)
        shard = 0
        laggard = db.replicas[shard][0]
        healthy = db.replicas[shard][1]
        # Partition the laggard: the RCP collector skips unreachable
        # replicas, so the RCP keeps advancing while the laggard's redo
        # frontier stalls.
        db.network.set_endpoint_up(laggard.name, False)
        db.run_for(0.3)
        key = key_on_shard(db, shard)
        for step in range(3):
            session.begin()
            session.update("accounts", (key,), {"balance": 200 + step})
            session.commit()
            db.run_for(0.1)
        db.run_for(0.3)
        stalled_frontier = laggard.engine.max_commit_ts
        advertised_rcp = max(cn.rcp_state.rcp for cn in db.cns)
        assert advertised_rcp > stalled_frontier, \
            "precondition: the RCP must have advanced past the laggard"
        # Heal the partition, then lose the primary AND the caught-up
        # replica: the stale laggard is the only promotion candidate.
        db.network.set_endpoint_up(laggard.name, True)
        healthy.fail()
        db.primaries[shard].fail()
        db.run_for(1.5)
        events = [event for event in db.failover.events
                  if event.shard == shard]
        assert events, "no failover event for the shard"
        event = events[0]
        assert event.new_primary == laggard.name
        assert event.rcp_gap_healed > 0, \
            "the promotion should have recorded a healed RCP gap"
        assert db.primaries[shard].engine.max_commit_ts >= advertised_rcp
        # Reads keep working against the promoted (previously stale) node.
        reader = db.session()
        row = reader.read_only("accounts", (key,))
        assert row is not None

    def test_caught_up_promotion_heals_nothing(self):
        """The guard must be a no-op when the promoted replica's frontier
        already covers every CN's RCP (the common case)."""
        db = build_failover_db()
        load_accounts(db)
        db.primaries[0].fail()
        db.run_for(1.5)
        event = db.failover.events[0]
        assert event.rcp_gap_healed == 0
