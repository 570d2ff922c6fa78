"""Unit tests for the MVCC storage engine."""

import pytest

from repro.errors import (
    DuplicateKeyError,
    StorageError,
    TableNotFoundError,
    TransactionError,
)
from repro.sim import Environment
from repro.storage import (
    ColumnDef,
    DistributionSpec,
    RedoCommit,
    RedoInsert,
    RedoPendingCommit,
    Snapshot,
    StorageEngine,
    TableSchema,
)


def make_engine():
    env = Environment()
    engine = StorageEngine(env, "dn1")
    schema = TableSchema(
        name="accounts",
        columns=[ColumnDef("id", "int"), ColumnDef("balance", "int"),
                 ColumnDef("owner", "text")],
        primary_key=("id",),
    )
    engine.create_table(schema)
    return env, engine


def commit(engine, txid, ts):
    engine.log_pending_commit(txid)
    engine.commit(txid, ts)


class TestDdl:
    def test_create_and_drop_table(self):
        env, engine = make_engine()
        assert engine.catalog.has_table("accounts")
        engine.drop_table("accounts", ddl_ts=50)
        assert not engine.catalog.has_table("accounts")
        with pytest.raises(TableNotFoundError):
            engine.read("accounts", (1,), Snapshot(100))

    def test_ddl_timestamps_recorded(self):
        env, engine = make_engine()
        engine.create_index("accounts", "owner", ddl_ts=77)
        assert engine.catalog.ddl_ts("accounts") == 77
        assert engine.catalog.max_ddl_ts == 77

    def test_duplicate_table_rejected(self):
        env, engine = make_engine()
        with pytest.raises(StorageError):
            engine.create_table(TableSchema(
                name="accounts", columns=[ColumnDef("id", "int")],
                primary_key=("id",)))

    def test_schema_validates_primary_key(self):
        with pytest.raises(StorageError):
            TableSchema(name="bad", columns=[ColumnDef("a")], primary_key=("b",))

    def test_default_distribution_key_is_first_pk_column(self):
        schema = TableSchema(name="t", columns=[ColumnDef("a"), ColumnDef("b")],
                             primary_key=("a", "b"))
        assert schema.distribution.method == "hash"
        assert schema.distribution.column == "a"

    def test_replicated_distribution(self):
        schema = TableSchema(name="t", columns=[ColumnDef("a")],
                             primary_key=("a",),
                             distribution=DistributionSpec("replicated"))
        assert schema.distribution.column is None


class TestInsertReadVisibility:
    def test_own_writes_visible_before_commit(self):
        env, engine = make_engine()
        engine.begin(10)
        engine.insert(10, "accounts", {"id": 1, "balance": 100, "owner": "ann"})
        own = Snapshot(read_ts=0, txid=10)
        other = Snapshot(read_ts=10**15)
        assert engine.read("accounts", (1,), own)["balance"] == 100
        assert engine.read("accounts", (1,), other) is None

    def test_committed_row_visible_at_or_after_commit_ts(self):
        env, engine = make_engine()
        engine.begin(10)
        engine.insert(10, "accounts", {"id": 1, "balance": 100, "owner": "ann"})
        commit(engine, 10, ts=500)
        assert engine.read("accounts", (1,), Snapshot(499)) is None
        assert engine.read("accounts", (1,), Snapshot(500))["balance"] == 100
        assert engine.read("accounts", (1,), Snapshot(501))["balance"] == 100

    def test_duplicate_key_rejected(self):
        env, engine = make_engine()
        engine.begin(10)
        engine.insert(10, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        commit(engine, 10, ts=100)
        engine.begin(11)
        with pytest.raises(DuplicateKeyError):
            engine.insert(11, "accounts", {"id": 1, "balance": 2, "owner": "b"})

    def test_concurrent_uncommitted_insert_conflicts(self):
        env, engine = make_engine()
        engine.begin(10)
        engine.begin(11)
        engine.insert(10, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        with pytest.raises(DuplicateKeyError):
            engine.insert(11, "accounts", {"id": 1, "balance": 2, "owner": "b"})

    def test_own_uncommitted_insert_is_a_duplicate(self):
        env, engine = make_engine()
        engine.begin(10)
        engine.insert(10, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        with pytest.raises(DuplicateKeyError):
            engine.insert(10, "accounts", {"id": 1, "balance": 2, "owner": "a"})
        assert len(engine.table("accounts").versions((1,))) == 1

    def test_reinsert_after_delete(self):
        env, engine = make_engine()
        engine.begin(10)
        engine.insert(10, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        commit(engine, 10, ts=100)
        engine.begin(11)
        assert engine.delete(11, "accounts", (1,))
        commit(engine, 11, ts=200)
        engine.begin(12)
        engine.insert(12, "accounts", {"id": 1, "balance": 9, "owner": "b"})
        commit(engine, 12, ts=300)
        assert engine.read("accounts", (1,), Snapshot(300))["owner"] == "b"
        # Time travel: the old row is still visible at ts 150.
        assert engine.read("accounts", (1,), Snapshot(150))["owner"] == "a"


class TestUpdateDelete:
    def _seed(self, engine):
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 100, "owner": "ann"})
        engine.insert(1, "accounts", {"id": 2, "balance": 200, "owner": "bob"})
        commit(engine, 1, ts=100)

    def test_update_creates_new_version(self):
        env, engine = make_engine()
        self._seed(engine)
        engine.begin(2)
        new_row = engine.update(2, "accounts", (1,), {"balance": 150})
        assert new_row["balance"] == 150
        commit(engine, 2, ts=200)
        assert engine.read("accounts", (1,), Snapshot(150))["balance"] == 100
        assert engine.read("accounts", (1,), Snapshot(200))["balance"] == 150

    def test_update_missing_row_returns_none(self):
        env, engine = make_engine()
        self._seed(engine)
        engine.begin(2)
        assert engine.update(2, "accounts", (99,), {"balance": 1}) is None

    def test_update_own_insert_coalesces(self):
        env, engine = make_engine()
        engine.begin(2)
        engine.insert(2, "accounts", {"id": 5, "balance": 10, "owner": "eve"})
        engine.update(2, "accounts", (5,), {"balance": 20})
        commit(engine, 2, ts=100)
        assert engine.read("accounts", (5,), Snapshot(100))["balance"] == 20

    def test_delete_hides_row_from_later_snapshots(self):
        env, engine = make_engine()
        self._seed(engine)
        engine.begin(2)
        assert engine.delete(2, "accounts", (2,))
        commit(engine, 2, ts=200)
        assert engine.read("accounts", (2,), Snapshot(150))["owner"] == "bob"
        assert engine.read("accounts", (2,), Snapshot(200)) is None

    def test_delete_missing_row_returns_false(self):
        env, engine = make_engine()
        self._seed(engine)
        engine.begin(2)
        assert not engine.delete(2, "accounts", (42,))

    def test_update_targets_latest_committed_version(self):
        """Read-committed write rule: a later update sees the balance left
        by the previously committed transaction, not its own stale snapshot."""
        env, engine = make_engine()
        self._seed(engine)
        engine.begin(2)
        engine.update(2, "accounts", (1,), {"balance": 150})
        commit(engine, 2, ts=200)
        engine.begin(3)
        row = engine.update(3, "accounts", (1,), {"owner": "carl"})
        assert row["balance"] == 150  # not 100
        commit(engine, 3, ts=300)


class TestAbort:
    def test_abort_insert_removes_version(self):
        env, engine = make_engine()
        engine.begin(2)
        engine.insert(2, "accounts", {"id": 7, "balance": 1, "owner": "x"})
        engine.abort(2)
        assert engine.read("accounts", (7,), Snapshot(10**15)) is None
        # Key is free for reuse.
        engine.begin(3)
        engine.insert(3, "accounts", {"id": 7, "balance": 2, "owner": "y"})
        commit(engine, 3, ts=100)
        assert engine.read("accounts", (7,), Snapshot(100))["balance"] == 2

    def test_abort_update_restores_old_version(self):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 100, "owner": "a"})
        commit(engine, 1, ts=100)
        engine.begin(2)
        engine.update(2, "accounts", (1,), {"balance": 0})
        engine.abort(2)
        assert engine.read("accounts", (1,), Snapshot(200))["balance"] == 100
        # And the row is updatable again.
        engine.begin(3)
        assert engine.update(3, "accounts", (1,), {"balance": 5}) is not None

    def test_abort_delete_restores_row(self):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 100, "owner": "a"})
        commit(engine, 1, ts=100)
        engine.begin(2)
        engine.delete(2, "accounts", (1,))
        engine.abort(2)
        assert engine.read("accounts", (1,), Snapshot(200)) is not None

    def test_double_commit_rejected(self):
        env, engine = make_engine()
        engine.begin(1)
        commit(engine, 1, ts=100)
        with pytest.raises(TransactionError):
            engine.commit(1, 200)


class TestTwoPhase:
    def test_prepare_then_commit_prepared(self):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        engine.prepare(1)
        engine.commit_prepared(1, commit_ts=100)
        assert engine.read("accounts", (1,), Snapshot(100)) is not None

    def test_prepare_then_abort_prepared(self):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        engine.prepare(1)
        engine.abort_prepared(1)
        assert engine.read("accounts", (1,), Snapshot(10**15)) is None

    def test_commit_prepared_requires_prepare(self):
        env, engine = make_engine()
        engine.begin(1)
        with pytest.raises(TransactionError):
            engine.commit_prepared(1, commit_ts=100)

    @staticmethod
    def prepared(engine):
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        engine.prepare(1)

    def test_repeated_commit_prepared_logs_nothing(self):
        env, engine = make_engine()
        self.prepared(engine)
        lsn = engine.commit_prepared(1, commit_ts=100)
        assert lsn == engine.wal.last_lsn
        assert engine.commit_prepared(1, commit_ts=100) is None
        assert engine.wal.last_lsn == lsn
        assert engine.clog.commit_ts(1) == 100
        assert engine.read("accounts", (1,), Snapshot(100)) is not None

    def test_repeated_abort_prepared_logs_nothing(self):
        env, engine = make_engine()
        self.prepared(engine)
        lsn = engine.abort_prepared(1)
        assert lsn == engine.wal.last_lsn
        assert engine.abort_prepared(1) is None
        assert engine.wal.last_lsn == lsn
        assert engine.read("accounts", (1,), Snapshot(10**15)) is None

    @pytest.mark.parametrize("first, repeat", [
        ("commit", "abort"), ("abort", "commit"), ("commit", "other_ts")])
    def test_a_different_phase_two_still_raises(self, first, repeat):
        env, engine = make_engine()
        self.prepared(engine)
        if first == "commit":
            engine.commit_prepared(1, commit_ts=100)
        else:
            engine.abort_prepared(1)
        lsn = engine.wal.last_lsn
        with pytest.raises(TransactionError):
            if repeat == "abort":
                engine.abort_prepared(1)
            else:
                engine.commit_prepared(
                    1, commit_ts=101 if repeat == "other_ts" else 100)
        assert engine.wal.last_lsn == lsn


class TestCommitWindowHoldback:
    """A reader touching a transaction in its commit window blocks until
    the outcome; the event it waits on exists only once it blocks."""

    @pytest.mark.parametrize("window, outcome, expected", [
        ("pending", "commit", {"id": 1, "balance": 1, "owner": "a"}),
        ("pending", "abort", None),
        ("prepared", "commit", {"id": 1, "balance": 1, "owner": "a"}),
        ("prepared", "abort", None),
    ])
    def test_blocked_reader_wakes_at_resolution(self, window, outcome,
                                                expected):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        if window == "pending":
            engine.log_pending_commit(1)
        else:
            engine.prepare(1)
        woke = []

        def reader():
            row = yield from engine.read_waiting("accounts", (1,),
                                                 Snapshot(10**15, 2))
            woke.append((row, env.now))

        def resolver():
            yield env.timeout(50)
            if outcome == "abort":
                (engine.abort if window == "pending"
                 else engine.abort_prepared)(1)
            elif window == "pending":
                engine.commit(1, 100)
            else:
                engine.commit_prepared(1, 100)

        env.process(reader())
        env.process(resolver())
        env.run()
        assert woke == [(expected, 50)]
        assert not engine._unresolved

    @pytest.mark.parametrize("window", ["pending", "prepared"])
    def test_resolution_nobody_waits_for_schedules_nothing(self, window):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        before = env.events_scheduled
        if window == "pending":
            engine.log_pending_commit(1)
            engine.commit(1, 100)
        else:
            engine.prepare(1)
            engine.commit_prepared(1, 100)
        assert env.events_scheduled == before
        assert not engine._unresolved


class TestRedoStream:
    def test_dml_streams_records_before_commit(self):
        env, engine = make_engine()
        start = len(engine.wal)
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        assert len(engine.wal) == start + 1
        assert isinstance(engine.wal.records_from(start)[0], RedoInsert)

    def test_commit_order_pending_then_commit(self):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        engine.log_pending_commit(1)
        engine.commit(1, 100)
        kinds = [type(record) for record in engine.wal.records_from(0)]
        assert kinds[-2:] == [RedoPendingCommit, RedoCommit]

    def test_lsns_are_dense_and_increasing(self):
        env, engine = make_engine()
        engine.begin(1)
        engine.insert(1, "accounts", {"id": 1, "balance": 1, "owner": "a"})
        commit(engine, 1, ts=100)
        lsns = [record.lsn for record in engine.wal.records_from(0)]
        assert lsns == list(range(1, len(lsns) + 1))

    def test_heartbeat_advances_last_commit_ts(self):
        env, engine = make_engine()
        engine.heartbeat(999)
        assert engine.max_commit_ts == 999


class TestScanAndIndex:
    def _seed(self, engine):
        engine.begin(1)
        for i in range(10):
            engine.insert(1, "accounts",
                          {"id": i, "balance": i * 10, "owner": f"u{i % 3}"})
        commit(engine, 1, ts=100)

    def test_scan_visible_rows(self):
        env, engine = make_engine()
        self._seed(engine)
        rows = list(engine.scan("accounts", Snapshot(100)))
        assert len(rows) == 10

    def test_scan_with_predicate(self):
        env, engine = make_engine()
        self._seed(engine)
        rows = list(engine.scan("accounts", Snapshot(100),
                                lambda row: row["balance"] >= 50))
        assert len(rows) == 5

    def test_scan_respects_snapshot(self):
        env, engine = make_engine()
        self._seed(engine)
        assert list(engine.scan("accounts", Snapshot(99))) == []

    def test_index_lookup(self):
        env, engine = make_engine()
        self._seed(engine)
        engine.create_index("accounts", "owner", ddl_ts=150)
        rows = engine.lookup_index("accounts", "owner", "u0", Snapshot(200))
        assert sorted(row["id"] for row in rows) == [0, 3, 6, 9]

    def test_index_lookup_without_index_raises(self):
        env, engine = make_engine()
        self._seed(engine)
        with pytest.raises(StorageError):
            engine.lookup_index("accounts", "owner", "u0", Snapshot(200))

    def test_index_tracks_new_versions(self):
        env, engine = make_engine()
        self._seed(engine)
        engine.create_index("accounts", "owner", ddl_ts=150)
        engine.begin(2)
        engine.update(2, "accounts", (0,), {"owner": "zed"})
        commit(engine, 2, ts=200)
        rows = engine.lookup_index("accounts", "owner", "zed", Snapshot(200))
        assert [row["id"] for row in rows] == [0]
        old = engine.lookup_index("accounts", "owner", "u0", Snapshot(200))
        assert sorted(row["id"] for row in old) == [3, 6, 9]
