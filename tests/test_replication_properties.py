"""Property-based replication tests: a replica that has consumed the whole
redo stream is indistinguishable from its primary."""

from hypothesis import given, settings, strategies as st

from repro.replication.replayer import Replayer
from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.storage import ColumnDef, Snapshot, StorageEngine, TableSchema

KEYS = list(range(1, 5))

operation_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.sampled_from(["insert", "update", "delete"]),
              st.sampled_from(["commit", "abort", "prepare_commit",
                               "prepare_abort"])),
    min_size=1, max_size=25)


def run_history(operations):
    """Drive a primary through a random history while a replica replays
    its full redo stream; return (engine, store, max_ts)."""
    env = Environment()
    engine = StorageEngine(env, "primary")
    schema = TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",))
    engine.create_table(schema)
    store = ReplicaStore(env, "replica")
    replayer = Replayer(env, store, apply_ns_per_record=0)
    engine.wal.subscribe(lambda record: replayer.enqueue([record]))
    # Feed the DDL that predates the subscription.
    replayer.enqueue(engine.wal.records_from(0))

    ts = 0
    txid = 0
    for key, op, outcome in operations:
        txid += 1
        ts += 10
        engine.begin(txid)
        changed = False
        if op == "insert":
            snapshot = Snapshot(ts, txid)
            if engine.read("t", (key,), snapshot) is None:
                try:
                    engine.insert(txid, "t", {"k": key, "v": ts})
                    changed = True
                except Exception:
                    changed = False
        elif op == "update":
            changed = engine.update(txid, "t", (key,), {"v": ts}) is not None
        else:
            changed = engine.delete(txid, "t", (key,))
        if not changed:
            engine.abort(txid)
        elif outcome == "commit":
            engine.log_pending_commit(txid)
            engine.commit(txid, ts)
        elif outcome == "abort":
            engine.abort(txid)
        elif outcome == "prepare_commit":
            engine.prepare(txid)
            engine.commit_prepared(txid, ts)
        else:
            engine.prepare(txid)
            engine.abort_prepared(txid)
    env.run()  # drain replay
    return engine, store, ts


class TestReplicaConvergence:
    @settings(max_examples=60, deadline=None)
    @given(operations=operation_strategy)
    def test_replica_matches_primary_at_every_snapshot(self, operations):
        engine, store, max_ts = run_history(operations)
        assert len(store._unresolved) == 0
        for probe in range(0, max_ts + 11, 10):
            snapshot = Snapshot(probe)
            for key in KEYS:
                assert (store.read("t", (key,), snapshot)
                        == engine.read("t", (key,), snapshot)), \
                    f"divergence at ts={probe} key={key}"

    @settings(max_examples=40, deadline=None)
    @given(operations=operation_strategy)
    def test_replica_frontier_matches_last_commit(self, operations):
        engine, store, _max_ts = run_history(operations)
        assert store.max_commit_ts == engine.max_commit_ts

    @settings(max_examples=40, deadline=None)
    @given(operations=operation_strategy)
    def test_replica_version_counts_match(self, operations):
        engine, store, _max_ts = run_history(operations)
        for key in KEYS:
            assert (len(store.table("t").versions((key,)))
                    == len(engine.table("t").versions((key,))))
