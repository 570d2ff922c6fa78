"""PR 4 hot-path guarantees.

Two families of checks:

- the memoized MVCC visibility path (``heap._first_visible``, used by
  ``HeapTable.scan`` / ``lookup_index``) agrees with the uncached
  reference rule ``version_visible`` on randomized version chains and
  commit logs, and on chains of 17-600 versions grown by a real engine
  and replayed on a replica, where it bisects (hypothesis property);
- the optimized kernel reproduces the exact pre-optimization trace digest
  of the lint smoke scenario — the determinism proof the perf work is
  gated on.

Plus targeted coverage for the satellite changes: the SQL point-select
fast path and the strict ``Scale.from_env``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.storage import ColumnDef, StorageEngine, TableSchema
from repro.storage.clog import CommitLog
from repro.storage.heap import (
    HeapTable,
    RowVersion,
    _first_visible,
    version_visible,
)
from repro.storage.snapshot import Snapshot

# ----------------------------------------------------------------------
# Property: memoized visibility == reference visibility
# ----------------------------------------------------------------------
TXIDS = list(range(1, 9))


@st.composite
def clog_and_chain(draw):
    """A commit log with randomized outcomes and one version chain
    (newest first) whose xmin/xmax draw from the same txid pool."""
    clog = CommitLog()
    committed_any = False
    for txid in TXIDS:
        clog.begin(txid)
        outcome = draw(st.sampled_from(["committed", "aborted", "open"]))
        if outcome == "committed":
            clog.commit(txid, draw(st.integers(min_value=1, max_value=50)))
            committed_any = True
        elif outcome == "aborted":
            clog.abort(txid)
    chain = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        xmin = draw(st.sampled_from(TXIDS))
        xmax = draw(st.one_of(st.none(), st.sampled_from(TXIDS)))
        chain.append(RowVersion(key=("k",), data={"v": len(chain)},
                                xmin=xmin, xmax=xmax))
    read_ts = draw(st.integers(min_value=0, max_value=60))
    own = draw(st.one_of(st.none(), st.sampled_from(TXIDS)))
    del committed_any
    return clog, chain, read_ts, own


KEY = (1,)


@st.composite
def engine_chain(draw):
    """One key's chain, 17-600 versions long, as an engine (or a replica
    replaying that engine's WAL) produces it, with a snapshot to read it
    at. Single-statement transactions commit at ascending timestamps in
    runs of updates (every seventh writes twice: a self-ended version),
    deletes and aborted updates; ``buried`` lets a lock-free insert land
    above an in-flight transaction's insert + delete on a dead key, which
    then commits *later* (out of commit order), aborts, or stays in flight
    (reads are drawn to straddle those commits as often as any); vacuum
    freezes an anchor mid-history. The history ends with a head region:
    an open transaction's own writes, maybe its own delete, maybe logged
    pending-commit or prepared."""
    env = Environment()
    engine = StorageEngine(env, "dn")
    engine.create_table(TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
    heap = engine.table("t")
    clock = {"ts": 0, "txid": 0}

    def begin():
        clock["txid"] += 1
        engine.begin(clock["txid"])
        return clock["txid"]

    def commit(txid):
        clock["ts"] += 10
        engine.commit(txid, clock["ts"])

    def upsert(txid):
        if engine.update(txid, "t", KEY, {"v": clock["ts"]}) is None:
            engine.insert(txid, "t", {"k": 1, "v": clock["ts"]})

    open_txids = []
    out_of_order = []  # commit timestamps of the inserts above buried runs
    segments = draw(st.lists(
        st.tuples(st.sampled_from(["updates"] * 4 + ["buried"] * 2
                                  + ["delete", "abort", "vacuum"]),
                  st.integers(1, 150)),
        min_size=1, max_size=6))
    for kind, count in segments:
        if open_txids:
            break  # a buried transaction still holds the row lock
        if kind == "updates":
            for index in range(count):
                txid = begin()
                upsert(txid)
                if index % 7 == 6:
                    upsert(txid)
                commit(txid)
        elif kind == "delete":
            txid = begin()
            engine.delete(txid, "t", KEY)
            commit(txid)
        elif kind == "abort":
            txid = begin()
            upsert(txid)
            engine.abort(txid)
        elif kind == "vacuum":
            engine.vacuum(retention_ns=count)
        else:  # buried
            if engine.current_for_write(heap, KEY, -1) is not None:
                txid = begin()
                engine.delete(txid, "t", KEY)
                commit(txid)
            below = begin()
            upsert(below)
            if count % 2:
                upsert(below)
            engine.delete(below, "t", KEY)
            above = begin()
            engine.insert(above, "t", {"k": 1, "v": -1})
            commit(above)
            out_of_order.append(clock["ts"])
            fate = draw(st.sampled_from(["commit", "abort", "open"]))
            if fate == "commit":
                commit(below)
            elif fate == "abort":
                engine.abort(below)
            else:
                open_txids.append(below)
    while len(heap.versions(KEY)) < 17 and not open_txids:
        txid = begin()
        upsert(txid)
        commit(txid)
    head = draw(st.sampled_from(["none", "writes", "deleted", "pending",
                                 "prepared"]))
    if head != "none" and not open_txids:
        txid = begin()
        for _ in range(draw(st.integers(1, 20))):
            upsert(txid)
        if head == "deleted":
            engine.delete(txid, "t", KEY)
        elif head == "pending":
            engine.log_pending_commit(txid)
        elif head == "prepared":
            engine.prepare(txid)
        open_txids.append(txid)
    store = engine
    if draw(st.booleans()):
        store = ReplicaStore(env, "replica")
        store.apply_batch(engine.wal.records_from(0))
        if draw(st.booleans()):
            store.vacuum(retention_ns=draw(st.integers(0, 300)))
    chain = store.table("t").versions(KEY)
    # Snapshots at, just below and just above some version's commit.
    near = store.clog.commit_ts(draw(st.sampled_from(chain)).xmin)
    if near is None:
        near = clock["ts"]
    if out_of_order and draw(st.booleans()):
        near = draw(st.sampled_from(out_of_order))
    read_ts = near + draw(st.sampled_from([-1, 0, 1, 5, 15]))
    own = draw(st.sampled_from([None, *open_txids]))
    return store.clog, chain, read_ts, own


@settings(max_examples=600, deadline=None)
@given(st.one_of(clog_and_chain(), engine_chain()))
def test_first_visible_matches_reference(case):
    clog, chain, read_ts, own = case
    snapshot = Snapshot(read_ts, own)
    expected = None
    for version in chain:
        if version_visible(version, snapshot, clog):
            expected = version
            break
    memo: dict[int, bool] = {}
    got = _first_visible(chain, read_ts, own, clog._commit_ts, memo)
    assert got is expected
    # The memo must also be reusable across chains within one call site:
    # a second pass with the warm memo gives the same answer.
    assert _first_visible(chain, read_ts, own, clog._commit_ts, memo) is expected


@settings(max_examples=100, deadline=None)
@given(clog_and_chain())
def test_scan_matches_per_version_reference(case):
    clog, chain, read_ts, own = case
    heap = HeapTable("t")
    # Spread the chain across several keys to exercise the shared memo.
    for index, version in enumerate(chain):
        fresh = RowVersion(key=(index % 3,), data=dict(version.data),
                           xmin=version.xmin, xmax=version.xmax)
        heap.add_version(fresh)
    snapshot = Snapshot(read_ts, own)
    expected = []
    for key in heap.keys():
        for version in heap.versions(key):
            if version_visible(version, snapshot, clog):
                expected.append(version.data)
                break
    assert list(heap.scan(snapshot, clog)) == expected


def test_commit_ts_table_tracks_outcomes():
    clog = CommitLog()
    clog.begin(1)
    clog.begin(2)
    clog.commit(1, 10)
    clog.abort(2)
    assert clog.is_committed_before(1, 10)
    assert not clog.is_committed_before(1, 9)
    assert not clog.is_committed_before(2, 99)
    assert not clog.is_committed_before(777, 99)  # unknown txid
    # rebuild_cache reconstructs the table after wholesale _records swap.
    records = clog._records
    rebuilt = CommitLog()
    rebuilt._records = dict(records)
    rebuilt.rebuild_cache()
    assert rebuilt._commit_ts == clog._commit_ts


# ----------------------------------------------------------------------
# Determinism: the optimized kernel reproduces the pre-PR digest
# ----------------------------------------------------------------------
def test_smoke_digest_matches_pre_optimization_recording():
    from repro.bench.perf import PRE_OPT_SMOKE_DIGEST
    from repro.lint.determinism import smoke_run

    summary = smoke_run()
    assert summary["digest"] == PRE_OPT_SMOKE_DIGEST, (
        "the hot-path optimizations changed the simulated history; "
        "this digest was recorded on the unoptimized kernel")


# ----------------------------------------------------------------------
# SQL point-select fast path
# ----------------------------------------------------------------------
def test_point_plan_eligibility():
    from repro.sql import parse
    from repro.sql.executor import _plan_point_select

    plan = _plan_point_select(parse("SELECT id, val FROM t WHERE id = ?"))
    assert plan is not None and plan.eq == (("id", True, 0),)
    assert plan.columns == (("id", "id"), ("val", "val"))

    star = _plan_point_select(parse("SELECT * FROM t WHERE id = 5 AND val = ?"))
    assert star is not None and star.star
    assert set(star.eq) == {("id", False, 5), ("val", True, 0)}

    for sql in [
        "SELECT * FROM t",                               # no WHERE
        "SELECT * FROM t WHERE id = ? OR val = 1",        # OR
        "SELECT * FROM t WHERE id > 1",                   # non-equality
        "SELECT * FROM t WHERE id = 1 AND id = 2",        # duplicate column
        "SELECT * FROM t WHERE id = ? ORDER BY val",      # order by
        "SELECT * FROM t WHERE id = ? LIMIT 1",           # limit
        "SELECT COUNT(*) FROM t WHERE id = ?",            # aggregate
    ]:
        assert _plan_point_select(parse(sql)) is None, sql


def _tiny_db():
    from repro import ClusterConfig, build_cluster, one_region

    db = build_cluster(ClusterConfig.globaldb(one_region(), seed=9))
    session = db.session()
    session.create_table("pts", [("id", "int"), ("val", "int")],
                         primary_key=["id"])
    session.begin()
    for i in range(8):
        session.insert("pts", {"id": i, "val": i * 3})
    session.commit()
    db.run_for(0.05)
    return db, session


def test_point_select_fast_path_matches_generic():
    _db, session = _tiny_db()
    prepared = "SELECT id, val FROM pts WHERE id = ?"
    for key in (0, 3, 7, 99):
        fast = session.execute(prepared, (key,))
        # `1 = 1` (no column on either side) is ineligible for the point
        # plan, so this goes through the generic scan path.
        generic = session.execute(
            f"SELECT id, val FROM pts WHERE id = {key} AND 1 = 1")
        assert fast == generic
    # The plan was cached on the (session-cached) AST node.
    statement = session._statement_cache[prepared]
    assert getattr(statement, "_point_plan", None) is not None
    # Extra non-key equality conjuncts are re-checked against the row.
    hit = session.execute(
        "SELECT * FROM pts WHERE id = ? AND val = ?", (2, 6))
    assert hit == [{"id": 2, "val": 6}]
    miss = session.execute(
        "SELECT * FROM pts WHERE id = ? AND val = ?", (2, 7))
    assert miss == []
    # NULL never matches under SQL equality semantics.
    assert session.execute("SELECT * FROM pts WHERE id = ?", (None,)) == []


def test_point_select_missing_param_raises():
    from repro.errors import SqlError

    _db, session = _tiny_db()
    with pytest.raises(SqlError):
        session.execute("SELECT * FROM pts WHERE id = ?", ())


# ----------------------------------------------------------------------
# Scale.from_env strictness (satellite)
# ----------------------------------------------------------------------
def test_scale_from_env_strict(monkeypatch):
    from repro.bench import Scale

    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert Scale.from_env().name == "quick"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
    assert Scale.from_env().name == "full"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "QUICK")
    assert Scale.from_env().name == "quick"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "fulll")
    with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
        Scale.from_env()


def test_bench_cli_scale_flag_overrides_env(monkeypatch):
    from repro.bench.__main__ import _resolve_scale

    monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-scale")
    # --scale bypasses the (broken) environment variable entirely...
    assert _resolve_scale("full").name == "full"
    assert _resolve_scale("quick").name == "quick"
    # ...but with no flag the strict env parsing applies.
    with pytest.raises(ValueError):
        _resolve_scale(None)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
    assert _resolve_scale(None).name == "full"
