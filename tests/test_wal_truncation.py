"""Property tests: truncating the WAL prefix is invisible to replayers.

:meth:`WalBuffer.truncate_below` drops the prefix below every replica's
applied LSN, so a long run holds O(window) redo records. The safety
argument is that no catch-up or in-flight delivery ever needs a record
from that prefix. These properties drive a model of the protocol — random
append/apply/truncate interleavings with multiple replica cursors — and
assert that:

- catch-up slices stay dense, ordered, and start exactly past the
  requested LSN — truncation never creates a gap a replayer could skip;
- a replica adopts the row image a record carries: the image outlives the
  record's truncation untouched, and stays shared with the primary.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given

from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.storage import ColumnDef, StorageEngine, TableSchema
from repro.storage.redo import (
    RedoCommit,
    RedoHeartbeat,
    RedoInsert,
    RedoUpdate,
)
from repro.storage.wal import WalBuffer

RECORD_MAKERS = (
    lambda txid: RedoInsert(txid, table="t", key=(txid,),
                            row={"balance": txid}),
    lambda txid: RedoUpdate(txid, table="t", key=(txid,),
                            row={"balance": txid + 1}),
    lambda txid: RedoCommit(txid, commit_ts=txid * 10),
    lambda txid: RedoHeartbeat(0, commit_ts=txid * 10),
)

# A step is (record_kind, advance_replica_a, advance_replica_b,
# truncate_now); hypothesis drives the interleaving.
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3),
              st.booleans()),
    min_size=1, max_size=60)


@given(steps)
def test_catchup_slices_stay_dense_across_truncation(script):
    wal = WalBuffer()
    applied = {"a": 0, "b": 0}  # replica applied-LSN cursors
    for kind, advance_a, advance_b, truncate in script:
        wal.append(RECORD_MAKERS[kind](wal.last_lsn + 1))
        # Replicas apply some prefix of what exists (never beyond it).
        applied["a"] = min(wal.last_lsn, applied["a"] + advance_a)
        applied["b"] = min(wal.last_lsn, applied["b"] + advance_b)
        if truncate:
            # The protocol invariant: truncate at most one past the
            # minimum applied LSN.
            keep_from = min(applied.values()) + 1
            expected = max(0, keep_from - wal.start_lsn)
            assert wal.truncate_below(keep_from) == expected
        # What is held is exactly the untruncated suffix.
        assert len(wal) == wal.last_lsn - wal.start_lsn + 1
        assert wal.truncated_records == wal.start_lsn - 1
        # Everything any replica may still request is live and dense.
        for cursor in applied.values():
            lsns = [record.lsn for record in wal.records_from(cursor)]
            assert lsns == list(range(cursor + 1, wal.last_lsn + 1))


def test_adopted_images_survive_truncation():
    env = Environment()
    engine = StorageEngine(env, "dn")
    engine.create_table(TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
    replica = ReplicaStore(env, "replica")

    def write(txid):
        engine.begin(txid)
        engine.insert(txid, "t", {"k": txid, "v": 0})
        engine.update(txid, "t", (txid,), {"v": txid})
        engine.commit(txid, txid)

    for txid in range(1, 9):
        write(txid)
    replica.apply_batch(engine.wal.records_from(0))
    held = len(engine.wal)
    assert engine.wal.truncate_below(replica.applied_lsn + 1) == held
    assert len(engine.wal) == 0
    for txid in range(9, 17):
        write(txid)
    replica.apply_batch(engine.wal.records_from(replica.applied_lsn))
    for txid in range(1, 17):
        ours = engine.table("t").versions((txid,))
        theirs = replica.table("t").versions((txid,))
        assert [version.data for version in theirs] == [
            {"k": txid, "v": txid}, {"k": txid, "v": 0}]
        assert all(mine.data is yours.data
                   for mine, yours in zip(ours, theirs, strict=True))
