"""Property-based replication tests: a replica that has consumed the whole
redo stream is indistinguishable from its primary, and taking batches of
row changes only on arrival changes nothing a reader could see."""

from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.replication.replayer import Replayer
from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.sim.events import Event
from repro.storage import (
    ColumnDef,
    RedoCommit,
    RedoDelete,
    RedoHeartbeat,
    RedoInsert,
    RedoPendingCommit,
    RedoUpdate,
    Snapshot,
    StorageEngine,
    TableSchema,
)
from repro.storage.redo import row_changes_only

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


# ----------------------------------------------------------------------
# Batches of row changes only, applied on arrival
# ----------------------------------------------------------------------
class TimedReplayer:
    """The replayer before batches of row changes only were applied on
    arrival: every batch is queued, then timed, then applied. The reference
    :class:`~repro.replication.replayer.Replayer` is compared with."""

    def __init__(self, env, store, apply_ns_per_record, parallelism):
        self.env = env
        self.store = store
        self.apply_ns_per_record = apply_ns_per_record
        self.parallelism = parallelism
        self._queue = deque()
        self._wake = None
        env.process(self._run())

    def enqueue(self, *batches):
        self._queue.extend(batches)
        wake = self._wake
        if batches and wake is not None and not wake.triggered:
            self.env.resolve(wake, True, None)

    @property
    def backlog_batches(self):
        return len(self._queue)

    def _run(self):
        while True:
            if not self._queue:
                self._wake = Event(self.env)
                yield self._wake
                self._wake = None
            records = self._queue.popleft()
            delay = round(len(records) * self.apply_ns_per_record
                          / self.parallelism)
            if delay:
                yield self.env.timeout(delay)
            self.store.apply_batch(records)


#: Row changes only, as most batches of an open transaction are; a commit
#: window opening; an outcome alone or after row changes; a heartbeat.
BATCH_KINDS = ["rows", "rows", "pending", "commit", "rows+commit",
               "heartbeat"]

#: Gaps between arrivals: the same tick, inside a typical replay, or after.
gap_strategy = st.one_of(st.just(0), st.integers(1, 600),
                         st.integers(1, 3_000), st.integers(3_000, 40_000))
#: One arrival: the batches one ``enqueue`` call hands over (a catch-up
#: hands several).
arrival_strategy = st.tuples(
    gap_strategy,
    st.lists(st.tuples(st.sampled_from(BATCH_KINDS), st.integers(1, 4)),
             min_size=1, max_size=3))


def build_arrivals(schedule):
    """Turn (gap, [(kind, rows)]) arrivals into (time, [batch]) with dense
    LSNs. Row changes belong to the one open transaction; each of them
    inserts, updates or deletes its own key, in turn."""
    arrivals = []
    when = lsn = ts = txid = key = 0
    open_txid = None
    for gap, kinds in schedule:
        when += gap
        batches = []
        for kind, rows in kinds:
            records = []
            if kind != "heartbeat" and open_txid is None:
                txid += 1
                open_txid = txid
            if kind.startswith("rows"):
                for index in range(rows):
                    if index % 3 == 0:
                        key += 1
                        records.append(RedoInsert(
                            txid=open_txid, table="t", key=(key,),
                            row={"k": key, "v": index}))
                    elif index % 3 == 1:
                        records.append(RedoUpdate(
                            txid=open_txid, table="t", key=(key,),
                            row={"k": key, "v": index}))
                    else:
                        records.append(RedoDelete(txid=open_txid, table="t",
                                                  key=(key,)))
            if kind == "pending":
                records.append(RedoPendingCommit(txid=open_txid))
            if kind.endswith("commit"):
                ts += 10
                records.append(RedoCommit(txid=open_txid, commit_ts=ts))
                open_txid = None
            if kind == "heartbeat":
                ts += 10
                records.append(RedoHeartbeat(txid=0, commit_ts=ts))
            for record in records:
                lsn += 1
                record.lsn = lsn
            batches.append(records)
        arrivals.append((when, batches))
    return arrivals


def replay(arrivals, make_replayer):
    """Deliver ``arrivals`` to a fresh replica's replayer, each arrival its
    own entry queued up front. Returns (env, store, log): per applied
    batch (time, first LSN, row changes only, frontier, applied LSN,
    backlog, applied inside ``enqueue``)."""
    env = Environment()
    store = ReplicaStore(env, "replica")
    store.create_table(TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)),
        log=False)
    replayer = make_replayer(env, store)
    log = []
    arriving = [False]
    apply_batch = store.apply_batch

    def applied(records):
        apply_batch(records)
        log.append((env.now, records[0].lsn, row_changes_only(records),
                    store.max_commit_ts, store.applied_lsn,
                    replayer.backlog_batches, arriving[0]))

    store.apply_batch = applied

    def arrive(batches):
        arriving[0] = True
        replayer.enqueue(*batches)
        arriving[0] = False

    for when, batches in arrivals:
        env.defer(when, arrive, batches)
    env.run()
    return env, store, log


def store_by_value(store):
    heap = store.table("t")
    chains = {key: [(v.xmin, v.xmax, sorted(v.data.items()))
                    for v in heap.versions(key)] for key in heap.keys()}
    clog = {txid: (store.clog.status(txid), store.clog.commit_ts(txid))
            for txid in store.clog._records}
    return (chains, clog, store.max_commit_ts, store.applied_lsn,
            sorted(store._unresolved))


class TestRowChangesOnArrival:
    @settings(max_examples=150, deadline=None)
    @given(schedule=st.lists(arrival_strategy, min_size=1, max_size=25),
           apply_ns=st.one_of(st.just(0), st.integers(250, 4_000)),
           parallelism=st.sampled_from([1, 8]))
    # Taken on arrival, then a commit during its charge, at its end, after.
    @example(schedule=[(100, [("rows", 2)]), (300, [("commit", 1)])],
             apply_ns=2_000, parallelism=1)
    @example(schedule=[(100, [("rows", 2)]), (4_000, [("commit", 1)])],
             apply_ns=2_000, parallelism=1)
    @example(schedule=[(100, [("rows", 2)]), (5_000, [("commit", 1)])],
             apply_ns=2_000, parallelism=1)
    # A catch-up: row changes, then an outcome, in one call, and the
    # reverse; row changes arriving during a charge.
    @example(schedule=[(100, [("rows", 2), ("commit", 1)])],
             apply_ns=2_000, parallelism=8)
    @example(schedule=[(100, [("rows", 1)]), (9_000, [("pending", 1),
                                                     ("rows", 3)])],
             apply_ns=2_000, parallelism=1)
    @example(schedule=[(100, [("rows", 3)]), (1_000, [("rows", 1)]),
                       (0, [("heartbeat", 1)])],
             apply_ns=2_000, parallelism=1)
    def test_only_row_only_batches_move(self, schedule, apply_ns,
                                        parallelism):
        arrivals = build_arrivals(schedule)
        timed_env, timed_store, timed_log = replay(
            arrivals, lambda env, store: TimedReplayer(
                env, store, apply_ns, parallelism))
        env, store, log = replay(
            arrivals, lambda env, store: Replayer(
                env, store, apply_ns_per_record=apply_ns,
                parallelism=parallelism))

        def seen(entries):
            """What every other batch's apply shows: its instant, frontier,
            applied LSN and backlog."""
            return [entry[:2] + entry[3:6] for entry in entries
                    if not entry[2]]

        assert seen(log) == seen(timed_log)
        assert store_by_value(store) == store_by_value(timed_store)
        # Each batch taken on arrival saves its replay timer, if it had one.
        taken = [entry for entry in log if entry[2] and entry[6]]
        records_of = {records[0].lsn: len(records)
                      for _when, batches in arrivals for records in batches}
        saved = sum(1 for entry in taken
                    if round(records_of[entry[1]] * apply_ns / parallelism))
        assert timed_env.events_scheduled - env.events_scheduled == saved
