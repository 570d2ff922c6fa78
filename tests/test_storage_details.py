"""Detail tests: redo records, WAL, clog, heap internals, catalog."""

import pytest

from repro.errors import StorageError, TransactionError
from repro.sim import Environment
from repro.storage import (
    Catalog,
    ColumnDef,
    CommitLog,
    HeapTable,
    RedoCommit,
    RedoDdl,
    RedoDelete,
    RedoHeartbeat,
    RedoInsert,
    RowVersion,
    Snapshot,
    StorageEngine,
    TableSchema,
    TxnStatus,
    WalBuffer,
)
from repro.storage.redo import RECORD_HEADER_BYTES


class TestRedoSizes:
    def test_insert_size_scales_with_row(self):
        small = RedoInsert(txid=1, table="t", key=(1,), row={"k": 1})
        big = RedoInsert(txid=1, table="t", key=(1,),
                         row={"k": 1, "blob": "x" * 500})
        assert big.size_bytes() > small.size_bytes() + 400

    def test_control_records_are_header_sized(self):
        assert RedoHeartbeat(txid=0, commit_ts=1).size_bytes() == \
            RECORD_HEADER_BYTES
        assert RedoCommit(txid=1, commit_ts=5).size_bytes() == \
            RECORD_HEADER_BYTES

    def test_delete_size_fixed(self):
        record = RedoDelete(txid=1, table="t", key=(1, 2, 3))
        assert record.size_bytes() == RECORD_HEADER_BYTES + 16

    def test_row_bytes_handles_types(self):
        record = RedoInsert(txid=1, table="t", key=(1,), row={
            "i": 42, "f": 3.14, "s": "hello", "n": None, "o": (1, 2)})
        assert record.size_bytes() > RECORD_HEADER_BYTES


class TestWal:
    def test_subscribers_called_in_order(self):
        wal = WalBuffer()
        seen = []
        wal.subscribe(lambda record: seen.append(("a", record.lsn)))
        wal.subscribe(lambda record: seen.append(("b", record.lsn)))
        wal.append(RedoHeartbeat(txid=0, commit_ts=1))
        assert seen == [("a", 1), ("b", 1)]

    def test_records_from_with_offset_start(self):
        wal = WalBuffer(start_lsn=100)
        first = RedoHeartbeat(txid=0, commit_ts=1)
        second = RedoHeartbeat(txid=0, commit_ts=2)
        wal.append(first)
        wal.append(second)
        assert first.lsn == 100
        assert wal.last_lsn == 101
        assert wal.records_from(99) == [first, second]
        assert wal.records_from(100) == [second]
        assert wal.records_from(101) == []

    def test_bytes_accounting(self):
        wal = WalBuffer()
        record = RedoInsert(txid=1, table="t", key=(1,), row={"k": 1})
        wal.append(record)
        assert wal.bytes_written == record.size_bytes()


class TestClogEdges:
    def test_double_begin_rejected(self):
        clog = CommitLog()
        clog.begin(1)
        with pytest.raises(TransactionError):
            clog.begin(1)

    def test_unknown_txn_status_rejected(self):
        clog = CommitLog()
        with pytest.raises(TransactionError):
            clog.status(42)

    def test_abort_after_commit_rejected(self):
        clog = CommitLog()
        clog.begin(1)
        clog.commit(1, 10)
        with pytest.raises(TransactionError):
            clog.abort(1)

    def test_commit_after_abort_rejected(self):
        clog = CommitLog()
        clog.begin(1)
        clog.abort(1)
        with pytest.raises(TransactionError):
            clog.commit(1, 10)

    def test_prepare_only_from_in_progress(self):
        clog = CommitLog()
        clog.begin(1)
        clog.abort(1)
        with pytest.raises(TransactionError):
            clog.prepare(1)

    def test_ensure_idempotent(self):
        clog = CommitLog()
        clog.ensure(5)
        clog.ensure(5)
        assert clog.status(5) is TxnStatus.IN_PROGRESS


class TestHeapInternals:
    def test_version_count_and_len(self):
        heap = HeapTable("t")
        heap.add_version(RowVersion((1,), {"k": 1}, xmin=1))
        heap.add_version(RowVersion((1,), {"k": 1, "v": 2}, xmin=2))
        heap.add_version(RowVersion((2,), {"k": 2}, xmin=1))
        assert len(heap) == 2
        assert heap.version_count() == 3

    def test_remove_last_version_drops_key(self):
        heap = HeapTable("t")
        version = RowVersion((1,), {"k": 1}, xmin=1)
        heap.add_version(version)
        heap.remove_version(version)
        assert len(heap) == 0
        assert heap.versions((1,)) == []

    def test_duplicate_index_rejected(self):
        heap = HeapTable("t")
        heap.create_index("v")
        with pytest.raises(StorageError):
            heap.create_index("v")

    def test_index_built_over_existing_rows(self):
        heap = HeapTable("t")
        clog = CommitLog()
        clog.ensure(1)
        clog.commit(1, 10)
        heap.add_version(RowVersion((1,), {"k": 1, "v": "x"}, xmin=1))
        heap.create_index("v")
        rows = heap.lookup_index("v", "x", Snapshot(10), clog)
        assert rows == [{"k": 1, "v": "x"}]

    def test_newest_version_first(self):
        heap = HeapTable("t")
        old = RowVersion((1,), {"k": 1, "v": 1}, xmin=1, xmax=2)
        new = RowVersion((1,), {"k": 1, "v": 2}, xmin=2)
        heap.add_version(old)
        heap.add_version(new)
        assert heap.versions((1,))[0] is new


class TestCatalogEdges:
    def test_ddl_ts_monotone_per_table(self):
        catalog = Catalog()
        schema = TableSchema("t", [ColumnDef("k")], ("k",))
        catalog.create_table(schema, ddl_ts=10)
        catalog.record_ddl("t", 5)  # older timestamp must not regress it
        assert catalog.ddl_ts("t") == 10
        catalog.record_ddl("t", 20)
        assert catalog.ddl_ts("t") == 20
        assert catalog.max_ddl_ts == 20

    def test_tables_listing(self):
        catalog = Catalog()
        catalog.create_table(TableSchema("a", [ColumnDef("k")], ("k",)))
        catalog.create_table(TableSchema("b", [ColumnDef("k")], ("k",)))
        assert set(catalog.tables()) == {"a", "b"}

    def test_duplicate_column_rejected(self):
        with pytest.raises(StorageError):
            TableSchema("t", [ColumnDef("k"), ColumnDef("k")], ("k",))


class TestEngineDetails:
    def make(self):
        env = Environment()
        engine = StorageEngine(env, "dn")
        engine.create_table(TableSchema(
            "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
        return engine

    def test_tables_written_tracking(self):
        engine = self.make()
        engine.create_table(TableSchema(
            "u", [ColumnDef("k", "int")], ("k",)))
        engine.begin(1)
        engine.insert(1, "t", {"k": 1, "v": 1})
        engine.insert(1, "u", {"k": 1})
        assert engine.tables_written(1) == {"t", "u"}
        engine.log_pending_commit(1)
        engine.commit(1, 10)
        assert engine.tables_written(1) == set()

    def test_bulk_load_visible_and_unlogged(self):
        engine = self.make()
        wal_before = len(engine.wal)
        loaded = engine.bulk_load("t", [{"k": i, "v": i} for i in range(5)])
        assert loaded == 5
        assert len(engine.wal) == wal_before  # nothing logged
        assert engine.read("t", (3,), Snapshot(1)) == {"k": 3, "v": 3}

    def test_ddl_redo_carries_schema(self):
        engine = self.make()
        records = engine.wal.records_from(0)
        ddl = [record for record in records if isinstance(record, RedoDdl)]
        assert ddl and ddl[0].payload.name == "t"

    def test_is_active_lifecycle(self):
        engine = self.make()
        engine.begin(1)
        assert engine.is_active(1)
        engine.prepare(1)
        assert engine.is_active(1)
        engine.commit_prepared(1, 10)
        assert not engine.is_active(1)
