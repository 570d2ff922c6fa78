"""Integration tests: the assembled cluster end to end."""

import pytest

from repro import (
    ClusterConfig,
    TransactionAborted,
    TxnMode,
    build_cluster,
    one_region,
    three_city,
    two_region,
)
from repro.errors import StalenessBoundError
from repro.sim.units import ms


def quick_db(cfg_fn=ClusterConfig.globaldb, topology=None, **overrides):
    db = build_cluster(cfg_fn(topology or one_region(), **overrides))
    return db


def setup_accounts(db, rows=10):
    session = db.session()
    session.create_table(
        "accounts", [("id", "int"), ("balance", "int"), ("owner", "text")],
        primary_key=["id"])
    session.begin()
    for i in range(rows):
        session.insert("accounts", {"id": i, "balance": 100, "owner": f"u{i}"})
    session.commit()
    return session


class TestBasicOperations:
    def test_insert_commit_read(self):
        db = quick_db()
        session = setup_accounts(db, rows=3)
        session.begin()
        row = session.read("accounts", (1,))
        session.commit()
        assert row["balance"] == 100

    def test_update_visible_after_commit(self):
        db = quick_db()
        session = setup_accounts(db, rows=3)
        session.begin()
        session.update("accounts", (1,), {"balance": 150})
        session.commit()
        session.begin()
        row = session.read("accounts", (1,))
        session.commit()
        assert row["balance"] == 150

    def test_rollback_discards_changes(self):
        db = quick_db()
        session = setup_accounts(db, rows=3)
        session.begin()
        session.update("accounts", (1,), {"balance": 0})
        session.rollback()
        session.begin()
        row = session.read("accounts", (1,))
        session.commit()
        assert row["balance"] == 100

    def test_delete(self):
        db = quick_db()
        session = setup_accounts(db, rows=3)
        session.begin()
        assert session.delete("accounts", (2,))
        session.commit()
        session.begin()
        assert session.read("accounts", (2,)) is None
        session.commit()

    def test_scan_sees_all_committed_rows(self):
        db = quick_db()
        session = setup_accounts(db, rows=10)
        session.begin()
        rows = session.scan("accounts")
        session.commit()
        assert len(rows) == 10

    def test_multi_shard_transaction_uses_2pc(self):
        db = quick_db()
        session = setup_accounts(db, rows=20)
        # Move balance between two rows on (almost surely) different shards.
        session.begin()
        session.update("accounts", (0,), {"balance": 50})
        session.update("accounts", (7,), {"balance": 150})
        ts = session.commit()
        assert ts > 0
        session.begin()
        total = sum(row["balance"] for row in session.scan("accounts"))
        session.commit()
        assert total == 100 * 20

    def test_own_writes_visible_before_commit(self):
        db = quick_db()
        session = setup_accounts(db, rows=3)
        session.begin()
        session.update("accounts", (1,), {"balance": 1})
        assert session.read("accounts", (1,))["balance"] == 1
        session.rollback()

    def test_callable_changes_are_atomic_rmw(self):
        db = quick_db()
        session = setup_accounts(db, rows=3)
        for _ in range(3):
            session.begin()
            session.update("accounts", (1,), {
                "balance": lambda value: (value or 0) + 7})
            session.commit()
        session.begin()
        assert session.read("accounts", (1,))["balance"] == 121
        session.commit()


class TestReplicaReads:
    def test_ror_read_reflects_committed_data(self):
        db = quick_db()
        session = setup_accounts(db)
        db.run_for(0.2)
        row = session.read_only("accounts", (1,))
        assert row["balance"] == 100

    def test_ror_reads_hit_replicas(self):
        db = quick_db(topology=three_city())
        session = setup_accounts(db)
        db.run_for(0.3)
        for i in range(10):
            session.read_only("accounts", (i,))
        total_ror = sum(cn.ror_reads for cn in db.cns)
        assert total_ror > 0

    def test_rcp_becomes_positive_and_monotone(self):
        db = quick_db()
        session = setup_accounts(db)
        db.run_for(0.2)
        first = session.rcp
        assert first > 0
        db.run_for(0.2)
        assert session.rcp >= first

    def test_read_your_writes_eventually_on_replica(self):
        db = quick_db()
        session = setup_accounts(db)
        session.begin()
        session.update("accounts", (1,), {"balance": 777})
        commit_ts = session.commit()
        db.run_for(0.5)  # replication + RCP catch-up
        assert session.rcp >= commit_ts
        assert session.read_only("accounts", (1,))["balance"] == 777

    def test_strict_staleness_bound_can_fail(self):
        db = quick_db(topology=three_city())
        session = setup_accounts(db)
        db.run_for(0.2)
        with pytest.raises(StalenessBoundError):
            # Zero staleness is unsatisfiable on async replicas.
            session.read_only("accounts", (1,), max_staleness_ms=0)

    def test_loose_staleness_bound_succeeds(self):
        db = quick_db()
        session = setup_accounts(db)
        db.run_for(0.3)
        row = session.read_only("accounts", (1,), max_staleness_ms=5000)
        assert row is not None

    def test_multi_key_read_only_one_snapshot(self):
        db = quick_db()
        session = setup_accounts(db)
        db.run_for(0.2)
        rows = session.read_only_multi("accounts", [(i,) for i in range(5)])
        assert all(row["balance"] == 100 for row in rows)

    def test_scan_only(self):
        db = quick_db()
        session = setup_accounts(db)
        db.run_for(0.2)
        rows = session.scan_only("accounts",
                                 predicate=lambda row: row["id"] < 5)
        assert len(rows) == 5


class TestBaselineMode:
    def test_baseline_reads_go_to_primaries(self):
        db = quick_db(cfg_fn=ClusterConfig.baseline)
        session = setup_accounts(db)
        db.run_for(0.2)
        row = session.read_only("accounts", (1,))
        assert row["balance"] == 100
        assert all(cn.ror_reads == 0 for cn in db.cns)

    def test_baseline_sync_commit_slower_than_async(self):
        def commit_time(cfg_fn):
            db = build_cluster(cfg_fn(two_region(latency=ms(30))))
            session = setup_accounts(db, rows=1)
            session.begin()
            session.update("accounts", (0,), {"balance": 1})
            start = db.env.now
            session.commit()
            return db.env.now - start

        sync_time = commit_time(ClusterConfig.baseline)
        async_time = commit_time(ClusterConfig.globaldb)
        assert sync_time > async_time
        assert sync_time >= ms(30)  # waited on the cross-region ack

    def test_baseline_uses_gtm_counter_timestamps(self):
        db = quick_db(cfg_fn=ClusterConfig.baseline)
        session = setup_accounts(db, rows=1)
        session.begin()
        session.update("accounts", (0,), {"balance": 1})
        ts = session.commit()
        assert ts < 1000  # counter-scale, not epoch-scale


class TestDdl:
    def test_create_table_replicates_to_replicas(self):
        db = quick_db()
        session = db.session()
        session.create_table("t2", [("k", "int")], primary_key=["k"])
        db.run_for(0.2)
        for replica_list in db.replicas.values():
            for replica in replica_list:
                assert replica.engine.catalog.has_table("t2")

    def test_ddl_fence_falls_back_to_primary_until_replayed(self):
        db = quick_db()
        session = db.session()
        session.create_table("t3", [("k", "int"), ("v", "int")],
                             primary_key=["k"])
        session.begin()
        session.insert("t3", {"k": 1, "v": 2})
        session.commit()
        # Immediately after DDL the RCP is behind the DDL timestamp: the
        # read must still succeed (served by the primary), never error.
        row = session.read_only("t3", (1,))
        assert row == {"k": 1, "v": 2}

    def test_create_index_and_online_use(self):
        db = quick_db()
        session = setup_accounts(db)
        session.create_index("accounts", "owner")
        db.run_for(0.2)
        # Index exists on primaries and replicas.
        for primary in db.primaries:
            assert primary.engine.table("accounts").has_index("owner")

    def test_drop_table(self):
        db = quick_db()
        session = db.session()
        session.create_table("temp", [("k", "int")], primary_key=["k"])
        session.drop_table("temp")
        for primary in db.primaries:
            assert not primary.engine.catalog.has_table("temp")

    def test_second_cn_learns_ddl(self):
        db = quick_db(topology=three_city())
        session = db.session(region="xian")
        session.create_table("t4", [("k", "int")], primary_key=["k"])
        db.run_for(0.3)
        other = next(cn for cn in db.cns if cn.region == "dongguan")
        assert other.catalog.has_table("t4")


class TestConcurrencyConflicts:
    def test_write_conflict_waits_not_aborts(self):
        """Two concurrent increments to the same row must serialize through
        the row lock and both apply."""
        db = quick_db()
        setup_accounts(db, rows=1)
        cn = db.cns[0]

        def incrementer():
            ctx = yield from cn.g_begin()
            yield from cn.g_update(ctx, "accounts", (0,), {
                "balance": lambda value: (value or 0) + 1})
            yield from cn.g_commit(ctx)

        procs = [db.env.process(incrementer()) for _ in range(10)]
        db.env.run(until=db.env.all_of(procs))
        session = db.session()
        session.begin()
        assert session.read("accounts", (0,))["balance"] == 110
        session.commit()


class TestFailureInjection:
    def test_replica_failure_reroutes_reads(self):
        db = quick_db(topology=three_city())
        session = setup_accounts(db)
        db.run_for(0.3)
        # Kill every replica: reads must fall back to primaries.
        for replica_list in db.replicas.values():
            for replica in replica_list:
                replica.fail()
        db.run_for(0.3)  # metrics notice the failures
        row = session.read_only("accounts", (1,))
        assert row is not None

    def test_collector_failover(self):
        db = build_cluster(ClusterConfig.globaldb(one_region(),
                                                  cns_per_region=2))
        setup_accounts(db)
        db.run_for(0.2)
        region = db.cns[0].region
        region_cns = [cn for cn in db.cns if cn.region == region]
        collector = next(cn for cn in region_cns if cn.ror.is_collector)
        backup = next(cn for cn in region_cns if not cn.ror.is_collector)
        rcp_before = backup.rcp_state.rcp
        collector.fail()
        db.run_for(0.5)
        assert backup.ror.is_collector
        assert backup.rcp_state.rcp >= rcp_before

    def test_rcp_still_advances_after_replica_loss(self):
        db = quick_db()
        session = setup_accounts(db)
        db.run_for(0.2)
        victim = db.replicas[0][0]
        victim.fail()
        before = session.rcp
        db.run_for(0.5)
        assert session.rcp > before  # failed replica skipped, not frozen


class TestMigrationLive:
    def test_migration_to_gclock_and_back(self):
        db = quick_db(cfg_fn=ClusterConfig.baseline)
        session = setup_accounts(db, rows=2)
        report = db.migrate_to_gclock()
        assert report.direction == "gtm->gclock"
        assert db.gtm.mode is TxnMode.GCLOCK
        session.begin()
        session.update("accounts", (0,), {"balance": 1})
        ts_gclock = session.commit()
        report_back = db.migrate_to_gtm()
        assert report_back.dwell_ns == 0  # Fig. 3: no dwell needed
        session.begin()
        session.update("accounts", (1,), {"balance": 2})
        ts_gtm = session.commit()
        assert ts_gtm > ts_gclock  # monotone across the migration

    def test_migration_dwell_is_twice_max_err(self):
        db = quick_db(cfg_fn=ClusterConfig.baseline)
        setup_accounts(db, rows=1)
        report = db.migrate_to_gclock()
        assert report.dwell_ns == 2 * db.gtm.max_err_seen or report.dwell_ns > 0

    def test_timestamps_monotone_through_migration_under_load(self):
        db = quick_db(cfg_fn=ClusterConfig.baseline)
        setup_accounts(db, rows=5)
        cn = db.cns[0]
        commit_ts_by_writer = {key: [] for key in range(3)}
        stop = {"flag": False}

        def writer(key):
            while not stop["flag"]:
                ctx = yield from cn.g_begin()
                try:
                    yield from cn.g_update(ctx, "accounts", (key,), {
                        "balance": lambda value: (value or 0) + 1})
                    ts = yield from cn.g_commit(ctx)
                    commit_ts_by_writer[key].append(ts)
                except TransactionAborted:
                    pass

        for key in range(3):
            db.env.process(writer(key))
        migration = db.env.process(db.migration.to_gclock(), name="migrate")
        db.env.run(until=migration)
        db.run_for(0.1)
        stop["flag"] = True
        db.run_for(0.5)
        # Each writer's successive commits must carry strictly increasing
        # timestamps straight through GTM -> DUAL -> GClock.
        for key, series in commit_ts_by_writer.items():
            assert series, f"writer {key} committed nothing during migration"
            assert series == sorted(series)
            assert len(set(series)) == len(series)
