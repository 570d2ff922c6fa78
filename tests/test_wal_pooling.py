"""Property tests: recycled WAL shells are unobservable to replayers.

PR 9 made :meth:`WalBuffer.truncate_below` recycle redo-record *shells*
into per-type pools for the engine to reuse. The safety argument is that
truncation only ever removes the prefix below every replica's applied
LSN, so no catch-up or in-flight delivery can hand a recycled (and later
repurposed) object to a replayer. These properties drive a model of that
protocol — random append/apply/truncate interleavings with multiple
replica cursors — and assert, by object identity, that:

- nothing a replica is still entitled to read (``records_from`` at or
  above its applied LSN) is ever aliased with a pooled shell;
- shells handed back out by :meth:`WalBuffer.take` never alias the live
  window either;
- catch-up slices stay dense, ordered, and start exactly past the
  requested LSN — truncation never creates a gap a replayer could skip;
- a replica adopts the row image a record carries, never the shell: the
  image outlives the shell's recycling and reuse untouched.
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


def _pooled_ids(wal: WalBuffer) -> set[int]:
    return {id(record) for pool in wal._pools.values() for record in pool}


@given(steps)
def test_replayer_never_observes_recycled_shells(script):
    wal = WalBuffer()
    applied = {"a": 0, "b": 0}  # replica applied-LSN cursors
    for kind, advance_a, advance_b, truncate in script:
        record = RECORD_MAKERS[kind](wal.last_lsn + 1)
        wal.append(record)
        # Replicas apply some prefix of what exists (never beyond it).
        applied["a"] = min(wal.last_lsn, applied["a"] + advance_a)
        applied["b"] = min(wal.last_lsn, applied["b"] + advance_b)
        if truncate:
            # The protocol invariant: truncate at most one past the
            # minimum applied LSN.
            wal.truncate_below(min(applied.values()) + 1)

        pooled = _pooled_ids(wal)
        # Live window never aliases the pools.
        assert all(id(rec) not in pooled for rec in wal._records)
        # Everything any replica may still request is live and dense.
        for cursor in applied.values():
            batch = wal.records_from(cursor)
            lsns = [rec.lsn for rec in batch]
            assert lsns == list(range(cursor + 1, wal.last_lsn + 1))
            assert all(id(rec) not in pooled for rec in batch)


@given(steps)
def test_taken_shells_do_not_alias_live_window(script):
    wal = WalBuffer()
    applied = 0
    for kind, advance, _unused, truncate in script:
        wal.append(RECORD_MAKERS[kind](wal.last_lsn + 1))
        applied = min(wal.last_lsn, applied + advance)
        if truncate:
            wal.truncate_below(applied + 1)
    live = {id(rec) for rec in wal._records}
    for cls in (RedoInsert, RedoUpdate, RedoCommit, RedoHeartbeat):
        while (shell := wal.take(cls)) is not None:
            assert id(shell) not in live
            # Pooled insert/update shells must not pin row payloads.
            if isinstance(shell, (RedoInsert, RedoUpdate)):
                assert shell.row is None


@given(steps)
def test_pooling_off_is_equivalent_except_for_reuse(script):
    pooled, plain = WalBuffer(pooling=True), WalBuffer(pooling=False)
    applied = 0
    for kind, advance, _unused, truncate in script:
        pooled.append(RECORD_MAKERS[kind](pooled.last_lsn + 1))
        plain.append(RECORD_MAKERS[kind](plain.last_lsn + 1))
        applied = min(pooled.last_lsn, applied + advance)
        if truncate:
            assert (pooled.truncate_below(applied + 1)
                    == plain.truncate_below(applied + 1))
    assert pooled.last_lsn == plain.last_lsn
    assert pooled.start_lsn == plain.start_lsn
    assert [rec.lsn for rec in pooled.records_from(applied)] == \
        [rec.lsn for rec in plain.records_from(applied)]
    assert not plain._pools


def test_adopted_images_survive_shell_recycling():
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
    shells = [record for record in engine.wal.records_from(0)
              if isinstance(record, (RedoInsert, RedoUpdate))]
    engine.wal.truncate_below(replica.applied_lsn + 1)
    assert all(shell.row is None for shell in shells)  # recycled
    for txid in range(9, 17):
        write(txid)  # reuses the shells for other rows
    assert {id(record) for record in engine.wal.records_from(0)} \
        & {id(shell) for shell in shells}
    for txid in range(1, 9):
        ours = engine.table("t").versions((txid,))
        theirs = replica.table("t").versions((txid,))
        assert [version.data for version in theirs] == [
            {"k": txid, "v": txid}, {"k": txid, "v": 0}]
        assert all(mine.data is yours.data
                   for mine, yours in zip(ours, theirs, strict=True))
