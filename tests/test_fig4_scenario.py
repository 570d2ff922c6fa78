"""The paper's Fig. 4 RCP walkthrough, replayed literally.

Three replicated shards with different replay progress:

- Replica 1 has applied commits up to ts4 (with Trx1's commit record
  arriving *after* Trx2's despite ts1 < ts2 — the out-of-order write the
  paper calls out);
- Replica 2 has applied up to ts5;
- Replica 3 has applied up to ts3.

RCP = min(ts4, ts5, ts3) = ts3: Trx1, Trx2, Trx3 are visible; Trx4 (whose
redo may not have arrived on every shard) and Trx5 (which might depend on
Trx4) are not.
"""

from repro.ror import compute_rcp
from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.storage import Snapshot
from repro.storage.catalog import ColumnDef, TableSchema
from repro.storage.redo import RedoCommit, RedoInsert, RedoPendingCommit

TS = {name: (index + 1) * 100 for index, name in
      enumerate(["ts1", "ts2", "ts3", "ts4", "ts5"])}


def make_replica(env, name):
    store = ReplicaStore(env, name)
    schema = TableSchema("t", [ColumnDef("k", "int"), ColumnDef("v", "text")],
                         ("k",))
    store.catalog.create_table(schema, ddl_ts=0)
    from repro.storage.heap import HeapTable
    store._tables["t"] = HeapTable("t")
    return store


def apply_txn(store, lsn, txid, key, commit_ts=None, pending_only=False):
    """Apply one transaction's records: insert, pending, [commit]."""
    insert = RedoInsert(txid=txid, table="t", key=(key,),
                        row={"k": key, "v": f"trx{txid}"})
    insert.lsn = lsn
    store.apply(insert)
    pending = RedoPendingCommit(txid=txid)
    pending.lsn = lsn + 1
    store.apply(pending)
    if pending_only:
        return lsn + 2
    commit = RedoCommit(txid=txid, commit_ts=commit_ts)
    commit.lsn = lsn + 2
    store.apply(commit)
    return lsn + 3


def test_fig4_rcp_and_visibility():
    env = Environment()
    replica1 = make_replica(env, "r1")
    replica2 = make_replica(env, "r2")
    replica3 = make_replica(env, "r3")

    # Replica 1: Trx2's commit record lands BEFORE Trx1's, although
    # ts1 < ts2 (out-of-order commit-record writes, Fig. 4's subtlety).
    lsn = 1
    lsn = apply_txn(replica1, lsn, txid=2, key=2, commit_ts=TS["ts2"])
    lsn = apply_txn(replica1, lsn, txid=1, key=1, commit_ts=TS["ts1"])
    lsn = apply_txn(replica1, lsn, txid=4, key=4, commit_ts=TS["ts4"])

    # Replica 2: everything through ts5.
    lsn = 1
    for txid, key in [(1, 1), (2, 2), (3, 3), (5, 5)]:
        lsn = apply_txn(replica2, lsn, txid=txid, key=key,
                        commit_ts=TS[f"ts{txid}"])

    # Replica 3: through ts3 only; Trx4's redo has arrived but its commit
    # has not (it is pending/in doubt here).
    lsn = 1
    for txid, key in [(1, 1), (2, 2), (3, 3)]:
        lsn = apply_txn(replica3, lsn, txid=txid, key=key,
                        commit_ts=TS[f"ts{txid}"])
    apply_txn(replica3, lsn, txid=4, key=4, pending_only=True)

    # --- the RCP calculation of Fig. 4 ---------------------------------
    maxima = {"r1": replica1.max_commit_ts, "r2": replica2.max_commit_ts,
              "r3": replica3.max_commit_ts}
    assert maxima == {"r1": TS["ts4"], "r2": TS["ts5"], "r3": TS["ts3"]}
    rcp = compute_rcp(maxima)
    assert rcp == TS["ts3"]

    # --- visibility at the RCP ------------------------------------------
    snapshot = Snapshot(rcp)
    # Trx1, Trx2, Trx3 visible wherever their data lives.
    assert replica2.read("t", (1,), snapshot) is not None
    assert replica2.read("t", (2,), snapshot) is not None
    assert replica2.read("t", (3,), snapshot) is not None
    # Trx1 visible on Replica 1 despite its late commit record.
    assert replica1.read("t", (1,), snapshot) is not None
    # Trx4 (ts4 > rcp) and Trx5 (ts5 > rcp) invisible at the RCP.
    assert replica1.read("t", (4,), snapshot) is None
    assert replica2.read("t", (5,), snapshot) is None


def test_fig4_pending_holdback_blocks_in_doubt_reads():
    """On Replica 3, Trx4 is pending: a reader touching its tuple blocks
    until the outcome record is replayed, then sees the right answer."""
    env = Environment()
    replica3 = make_replica(env, "r3")
    lsn = 1
    for txid, key in [(1, 1), (2, 2), (3, 3)]:
        lsn = apply_txn(replica3, lsn, txid=txid, key=key,
                        commit_ts=TS[f"ts{txid}"])
    next_lsn = apply_txn(replica3, lsn, txid=4, key=4, pending_only=True)
    assert len(replica3._unresolved) == 1

    outcomes = []

    def reader():
        row = yield from replica3.read_waiting("t", (4,), Snapshot(TS["ts5"]))
        outcomes.append(row)

    env.process(reader())
    env.run(until=1000)
    assert outcomes == []  # blocked on the in-doubt transaction

    commit = RedoCommit(txid=4, commit_ts=TS["ts4"])
    commit.lsn = next_lsn
    replica3.apply(commit)
    env.run(until=2000)
    assert outcomes == [{"k": 4, "v": "trx4"}]
