"""Tests for the Session facade, GlobalDB helpers, and the bench harness."""

import pytest

from repro import (
    ClusterConfig,
    ColumnDef,
    DistributionSpec,
    TableSchema,
    TransactionAborted,
    build_cluster,
    one_region,
)
from repro.bench.harness import ExperimentTable, Scale
from repro.errors import SimulationError


def quick_db(**overrides):
    return build_cluster(ClusterConfig.globaldb(one_region(), **overrides))


class TestSession:
    def test_begin_twice_rejected(self):
        db = quick_db()
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])
        session.begin()
        with pytest.raises(TransactionAborted):
            session.begin()
        session.rollback()

    def test_ops_without_txn_rejected(self):
        db = quick_db()
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])
        with pytest.raises(TransactionAborted):
            session.insert("t", {"k": 1})
        with pytest.raises(TransactionAborted):
            session.commit()

    def test_execute_txn_auto_commit(self):
        db = quick_db()
        session = db.session()
        session.create_table("t", [("k", "int"), ("v", "int")],
                             primary_key=["k"])

        def body(txn):
            yield from txn.insert("t", {"k": 1, "v": 10})
            row = yield from txn.read("t", (1,))
            yield from txn.update("t", (1,), {"v": row["v"] + 5})
            return "done"

        assert session.execute_txn(body) == "done"
        session.begin()
        assert session.read("t", (1,))["v"] == 15
        session.commit()

    def test_rows_handed_out_are_the_callers_copies(self):
        """One row image is shared by the primary, the redo stream and the
        replicas; whatever a session returns may be edited freely."""
        db = quick_db()
        session = db.session()
        session.create_table("t", [("k", "int"), ("v", "int")],
                             primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1, "v": 10})
        session.commit()
        db.run_for(0.3)  # replicas replay; the RCP covers the commit
        session.begin()
        handed_out = [session.read("t", (1,)),
                      session.read_for_update("t", (1,)),
                      session.update("t", (1,), {"v": 11}),
                      *session.scan("t")]
        session.commit()
        db.run_for(0.3)
        handed_out += [session.read_only("t", (1,)),
                       *session.read_only_multi("t", [(1,)]),
                       *session.scan_only("t")]
        assert [row["v"] for row in handed_out] == [10, 10, 11, 11, 11, 11, 11]
        for row in handed_out:
            row["v"] = -1
            row["junk"] = True
        stores = [primary.engine for primary in db.primaries]
        stores += [replica.store for replicas in db.replicas.values()
                   for replica in replicas]
        stored = [version.data for store in stores
                  for version in store.table("t").versions((1,))]
        assert len(stored) == 6  # two versions on a primary and two replicas
        assert all(image in ({"k": 1, "v": 10}, {"k": 1, "v": 11})
                   for image in stored)

    def test_execute_txn_auto_abort_on_error(self):
        db = quick_db()
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])

        def body(txn):
            yield from txn.insert("t", {"k": 9})
            raise RuntimeError("app bug")

        with pytest.raises(RuntimeError):
            session.execute_txn(body)
        session.begin()
        assert session.read("t", (9,)) is None
        session.commit()

    def test_read_your_writes_through_sql(self):
        db = quick_db()
        session = db.session()
        session.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t (k, v) VALUES (1, 1)")
        # Immediately visible to the same session, regardless of RCP lag.
        assert session.execute("SELECT v FROM t WHERE k = 1") == [{"v": 1}]

    def test_sessions_round_robin_within_region(self):
        db = build_cluster(ClusterConfig.globaldb(one_region(),
                                                  cns_per_region=2))
        region = db.cns[0].region
        first = db.session(region=region)
        second = db.session(region=region)
        assert first.cn is not second.cn

    def test_unknown_region_rejected(self):
        db = quick_db()
        with pytest.raises(SimulationError):
            db.session(region="atlantis")


class TestGlobalDbFacade:
    def test_bulk_load_replicated_table(self):
        db = quick_db()
        schema = TableSchema("cfg", [ColumnDef("k", "int")], ("k",),
                             distribution=DistributionSpec("replicated"))
        db.create_table_offline(schema)
        loaded = db.bulk_load("cfg", [{"k": i} for i in range(5)])
        assert loaded == 5
        # Every shard primary holds every row.
        for primary in db.primaries:
            assert len(primary.engine.table("cfg")) == 5

    @pytest.mark.parametrize("distribution", ["hash", "replicated"])
    def test_bulk_load_copies_each_row_once(self, distribution):
        """The caller keeps its dicts; every store that holds a row holds
        the one copy (a replicated table's, every shard's stores)."""
        db = quick_db()
        db.create_table_offline(TableSchema(
            "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",),
            distribution=DistributionSpec(distribution)))
        rows = [{"k": i, "v": i} for i in range(12)]
        db.bulk_load("t", rows)
        for row in rows:
            row["v"] = -1  # the caller's dicts are still the caller's
        holders = 0
        for key in range(12):
            images = [version.data
                      for node in [*db.primaries,
                                   *(r for rs in db.replicas.values() for r in rs)]
                      for store in [node.engine or node.store]
                      for version in store.table("t").versions((key,))]
            assert images[0] == {"k": key, "v": key}
            assert all(image is images[0] for image in images)
            holders += len(images)
        per_row = 3 * (len(db.primaries) if distribution == "replicated" else 1)
        assert holders == 12 * per_row

    def test_bulk_load_hash_table_partitions(self):
        db = quick_db()
        db.create_table_offline(TableSchema(
            "t", [ColumnDef("k", "int")], ("k",)))
        loaded = db.bulk_load("t", [{"k": i} for i in range(60)])
        assert loaded == 60
        per_shard = [len(primary.engine.table("t")) for primary in db.primaries]
        assert sum(per_shard) == 60
        assert max(per_shard) < 60  # actually spread

    def test_node_lookup(self):
        db = quick_db()
        assert db.node("dn0") is db.primaries[0]
        with pytest.raises(SimulationError):
            db.node("nothere")

    def test_total_counters(self):
        db = quick_db()
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1})
        session.commit()
        assert db.total_commits() >= 1
        assert db.total_aborts() == 0

    def test_all_nodes_enumeration(self):
        db = quick_db()
        names = {node.name for node in db.all_nodes()}
        assert len(names) == 3 + 6 + 12  # CNs + primaries + replicas


class TestBenchHarness:
    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert Scale.from_env().name == "full"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        assert Scale.from_env().name == "quick"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert Scale.from_env().name == "quick"

    def test_table_render_and_access(self):
        table = ExperimentTable(
            experiment="Demo", paper_claim="x beats y",
            columns=["name", "value", "ratio"])
        table.add_row("alpha", 1234.5, 0.913)
        table.add_row("beta", 2.25, 12.0)
        table.note("a note")
        text = table.render()
        assert "Demo" in text and "x beats y" in text
        assert "alpha" in text and "1234" in text
        assert "note: a note" in text
        assert table.column("name") == ["alpha", "beta"]
        assert table.cell(0, "ratio") == 0.913

    def test_table_round_trips_to_dict(self):
        table = ExperimentTable(experiment="D", paper_claim="c",
                                columns=["a"])
        table.add_row(1)
        data = table.to_dict()
        assert data["rows"] == [[1]]
        assert data["columns"] == ["a"]


class TestSingleShardBypass:
    def test_point_read_uses_dn_last_commit_ts(self):
        """§III: single-shard reads bypass timestamp acquisition — the DN
        answers at its own last-committed timestamp with no GTM RPC and no
        invocation wait."""
        db = build_cluster(ClusterConfig.baseline(one_region()))
        session = db.session()
        session.create_table("t", [("k", "int"), ("v", "int")],
                             primary_key=["k"])
        session.begin()
        session.insert("t", {"k": 1, "v": 42})
        session.commit()
        gtm_begins_before = db.gtm.begin_requests
        # ror is disabled in baseline, so read_only takes _baseline_read,
        # which DOES contact the GTM. The bypass is the ("read", None, ...)
        # path used by ROR primary fallbacks; exercise it directly:
        cn = db.cns[0]

        def bypass_read():
            shard = db.shard_map.shard_for_key("t", (1,))
            reply = yield db.network.request(
                cn.name, cn.primary_of_shard[shard],
                ("read", None, None, "t", (1,)))
            return reply

        row, read_ts = db.env.run(until=db.env.process(bypass_read()))
        assert row["v"] == 42
        assert read_ts > 0  # the DN substituted its last commit timestamp
        assert db.gtm.begin_requests == gtm_begins_before
