"""Property-based vacuum tests: reclamation never changes what any
snapshot at or above the horizon can read."""

from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.sim import Environment
from repro.storage import ColumnDef, Snapshot, StorageEngine, TableSchema


def build_history(operations, engine_cls=StorageEngine, on_step=None):
    """Apply a random lock-disciplined history; return (engine, max_ts).

    ``operations`` is a list of ``(key, op, outcome)``. ``op`` is
    ``"upsert"``, ``"delete"`` or ``"insert"`` (one statement on ``key``;
    a bare insert takes no lock), ``"vacuum"`` (retention
    ``(key - 1) * 10``) or ``"finish"`` (end the open transaction with
    ``outcome``). ``outcome`` is ``True`` / ``"commit"``,
    ``False`` / ``"abort"``, ``"prepare_commit"``, ``"prepare_abort"``, or
    ``"hold"``: the statement belongs to the one open multi-statement
    transaction, which is begun if there is none and is left in flight if
    nothing finishes it. Every other statement is its own transaction.
    Upserts and deletes take the row lock first, as a data node does; a
    statement that would wait for the open transaction's lock is skipped.
    ``on_step(engine)``, if given, runs after each operation and inside
    each commit window (after ``PENDING_COMMIT`` or ``PREPARE``).
    """
    env = Environment()
    engine = engine_cls(env, "dn")
    engine.create_table(TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
    ts = 0
    next_txid = 0
    open_txid = None

    def step():
        if on_step is not None:
            on_step(engine)

    def finish(txid, outcome, did_something):
        if outcome in (True, "commit") and did_something:
            engine.log_pending_commit(txid)
            step()
            engine.commit(txid, ts)
        elif outcome in (False, "abort") or not did_something:
            engine.abort(txid)
        else:
            engine.prepare(txid)
            step()
            if outcome == "prepare_commit":
                engine.commit_prepared(txid, ts)
            else:
                engine.abort_prepared(txid)

    for key, op, outcome in operations:
        ts += 10
        if op == "vacuum":
            engine.vacuum(retention_ns=(key - 1) * 10)
            step()
            continue
        if op == "finish":
            if open_txid is not None and outcome != "hold":
                finish(open_txid, outcome, True)
                open_txid = None
            step()
            continue
        if outcome == "hold" and open_txid is not None:
            txid = open_txid
        else:
            next_txid += 1
            txid = next_txid
            engine.begin(txid)
            if outcome == "hold":
                open_txid = txid
        did_something = False
        if op == "insert" or engine.locks.holder("t", (key,)) in (None, txid):
            if op != "insert":
                engine.locks.acquire(txid, "t", (key,))
            if op == "delete":
                did_something = engine.delete(txid, "t", (key,))
            elif (op == "upsert" and
                    engine.update(txid, "t", (key,), {"v": ts}) is not None):
                did_something = True
            else:
                try:
                    engine.insert(txid, "t", {"k": key, "v": ts})
                    did_something = True
                except DuplicateKeyError:
                    pass  # the key is live, or inserted by the open txn
        if txid != open_txid:
            finish(txid, outcome, did_something)
        step()
    return engine, ts


operation_strategy = st.lists(
    st.tuples(st.integers(1, 4),
              st.sampled_from(["upsert", "delete"]),
              st.booleans()),
    min_size=1, max_size=30)


class TestVacuumProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations=operation_strategy,
           retention_steps=st.integers(0, 30))
    def test_reads_above_horizon_unchanged(self, operations, retention_steps):
        engine, max_ts = build_history(operations)
        retention = retention_steps * 10
        horizon = engine.max_commit_ts - retention
        probe_points = [ts for ts in range(0, max_ts + 11, 10)
                        if ts >= horizon]
        before = {
            (key, ts): engine.read("t", (key,), Snapshot(ts))
            for key in range(1, 5) for ts in probe_points
        }
        engine.vacuum(retention_ns=retention)
        after = {
            (key, ts): engine.read("t", (key,), Snapshot(ts))
            for key in range(1, 5) for ts in probe_points
        }
        assert before == after

    @settings(max_examples=40, deadline=None)
    @given(operations=operation_strategy)
    def test_vacuum_is_idempotent(self, operations):
        engine, _max_ts = build_history(operations)
        engine.vacuum(retention_ns=50)
        count_after_first = engine.table("t").version_count()
        second = engine.vacuum(retention_ns=50)
        assert engine.table("t").version_count() == count_after_first
        assert second.versions_removed == 0

    @settings(max_examples=40, deadline=None)
    @given(operations=operation_strategy)
    def test_zero_retention_keeps_only_live_tail(self, operations):
        """With retention 0 every key keeps at most its latest committed
        version (plus nothing dead)."""
        engine, max_ts = build_history(operations)
        engine.vacuum(retention_ns=0)
        heap = engine.table("t")
        snapshot = Snapshot(engine.max_commit_ts)
        for key in range(1, 5):
            versions = heap.versions((key,))
            assert len(versions) <= 1
            live = engine.read("t", (key,), snapshot)
            if versions:
                assert live is not None
            else:
                assert live is None

    @settings(max_examples=40, deadline=None)
    @given(operations=operation_strategy)
    def test_latest_committed_still_updatable_after_vacuum(self, operations):
        engine, max_ts = build_history(operations)
        engine.vacuum(retention_ns=0)
        snapshot = Snapshot(engine.max_commit_ts)
        for key in range(1, 5):
            exists = engine.read("t", (key,), snapshot) is not None
            txid = 10_000 + key
            engine.begin(txid)
            if exists:
                assert engine.update(txid, "t", (key,),
                                     {"v": -1}) is not None
            else:
                engine.insert(txid, "t", {"k": key, "v": -1})
            engine.abort(txid)
