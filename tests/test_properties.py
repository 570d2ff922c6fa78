"""Property-based tests (hypothesis) for the core invariants.

The crown jewels are R.1/R.2 (§III): under arbitrary clock drift and
operation interleavings, GClock commit-wait must deliver externally
consistent timestamps. Node code never sees true simulation time, so these
properties genuinely depend on the protocol, not on the test's knowledge.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.clocks import (
    ClockSyncConfig,
    ClockSyncDaemon,
    GClockSource,
    GlobalTimeDevice,
    PhysicalClock,
)
from repro.ror.skyline import NodeMetrics, choose_node, near_pool, skyline
from repro.sim import Environment, ms, us
from repro.sim.rand import RandomStreams
from repro.storage import ColumnDef, Snapshot, StorageEngine, TableSchema
from repro.storage.clog import CommitLog
from repro.storage.heap import version_visible


def make_sources(env, node_count, seed, max_drift_ppm=200.0):
    streams = RandomStreams(seed)
    device = GlobalTimeDevice(env, "r", rng=streams.stream("device"))
    sources = []
    for index in range(node_count):
        clock = PhysicalClock(env, f"n{index}", streams.stream(f"clock{index}"),
                              max_drift_ppm=max_drift_ppm,
                              initial_offset_ns=streams.stream("offsets").randint(
                                  -us(30), us(30)))
        sync = ClockSyncDaemon(env, clock, device, ClockSyncConfig(),
                               name=f"n{index}")
        sources.append(GClockSource(env, clock, sync))
    return sources


class TestExternalConsistency:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), node_count=st.integers(2, 5),
           events=st.integers(3, 12))
    def test_r1_commit_wait_orders_across_nodes(self, seed, node_count, events):
        """R.1: a transaction that takes its timestamp after another's
        commit-wait finished (in true time) gets a larger timestamp,
        regardless of which node's (drifting) clock produced each."""
        env = Environment()
        sources = make_sources(env, node_count, seed)
        rng = random.Random(seed)
        history = []  # (commit_done_true_time, ts)

        def one_txn(source):
            stamp = source.timestamp()
            yield from source.wait_until_after(stamp.ts)
            history.append((env.now, stamp.ts))

        def driver():
            for _ in range(events):
                source = rng.choice(sources)
                proc = env.process(one_txn(source))
                yield proc  # sequential: each starts after previous finished
                yield env.timeout(rng.randint(0, ms(2)))

        env.run(until=env.process(driver()))
        # Sequential in true time => timestamps strictly increase.
        timestamps = [ts for _done, ts in history]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_commit_wait_outlasts_true_time_of_timestamp(self, seed):
        """After wait_until_after(ts), true time strictly exceeds ts — the
        fact R.1's proof rests on."""
        env = Environment()
        (source,) = make_sources(env, 1, seed)
        env.run(until=ms(3))

        def flow():
            stamp = source.timestamp()
            yield from source.wait_until_after(stamp.ts)
            return stamp.ts

        ts = env.run(until=env.process(flow()))
        assert env.now > ts

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), node_count=st.integers(2, 4))
    def test_r2_reader_snapshot_excludes_later_writers(self, seed, node_count):
        """R.2 shape: a writer that takes its commit timestamp after a
        reader finished its invocation wait gets ts > the reader's
        snapshot, so the reader can never be required to see it."""
        env = Environment()
        sources = make_sources(env, node_count, seed)
        rng = random.Random(seed + 1)
        reader_source = sources[0]
        writer_source = sources[rng.randrange(1, node_count)]
        outcome = {}

        def reader():
            stamp = reader_source.timestamp()
            yield from reader_source.wait_until_after(stamp.ts)
            outcome["read_ts"] = stamp.ts
            outcome["reader_done"] = env.now

        def writer():
            yield env.process(reader())  # starts strictly after the reader
            stamp = writer_source.timestamp()
            outcome["write_ts"] = stamp.ts

        env.run(until=env.process(writer()))
        assert outcome["write_ts"] > outcome["read_ts"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), drift=st.floats(0.0, 500.0))
    def test_bounds_always_contain_true_time(self, seed, drift):
        env = Environment()
        sources = make_sources(env, 1, seed, max_drift_ppm=drift)
        source = sources[0]
        rng = random.Random(seed)
        for _ in range(20):
            env.run(until=env.now + rng.randint(1, ms(7)))
            earliest, latest = source.bounds()
            assert earliest <= env.now <= latest


class TestMvccProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_exactly_one_visible_version_per_key(self, data):
        """However a key's history interleaves inserts/updates/deletes from
        committed transactions, any snapshot sees at most one version."""
        env = Environment()
        engine = StorageEngine(env, "dn")
        engine.create_table(TableSchema(
            name="t", columns=[ColumnDef("k", "int"), ColumnDef("v", "int")],
            primary_key=("k",)))
        ts = 0
        txid = 0
        alive = False
        operations = data.draw(st.lists(
            st.sampled_from(["insert", "update", "delete"]),
            min_size=1, max_size=20))
        boundaries = []
        for op in operations:
            txid += 1
            ts += 10
            engine.begin(txid)
            if op == "insert":
                if alive:
                    engine.abort(txid)
                    continue
                engine.insert(txid, "t", {"k": 1, "v": ts})
                alive = True
            elif op == "update":
                if engine.update(txid, "t", (1,), {"v": ts}) is None:
                    engine.abort(txid)
                    continue
            else:
                if not engine.delete(txid, "t", (1,)):
                    engine.abort(txid)
                    continue
                alive = False
            engine.log_pending_commit(txid)
            engine.commit(txid, ts)
            boundaries.append(ts)
        heap = engine.table("t")
        for probe in [0] + boundaries + [ts + 5, ts - 5]:
            snapshot = Snapshot(max(0, probe))
            visible = [version for version in heap.versions((1,))
                       if version_visible(version, snapshot, engine.clog)]
            assert len(visible) <= 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 5), st.booleans()),
                    min_size=1, max_size=15))
    def test_aborted_transactions_leave_no_trace(self, plan):
        """Any mix of committed/aborted writers: aborted effects invisible,
        committed effects exactly preserved."""
        env = Environment()
        engine = StorageEngine(env, "dn")
        engine.create_table(TableSchema(
            name="t", columns=[ColumnDef("k", "int"), ColumnDef("v", "int")],
            primary_key=("k",)))
        engine.begin(1)
        for key in range(1, 6):
            engine.insert(1, "t", {"k": key, "v": 0})
        engine.log_pending_commit(1)
        engine.commit(1, 10)
        expected = {key: 0 for key in range(1, 6)}
        ts = 10
        txid = 1
        for key, commit in plan:
            txid += 1
            ts += 10
            engine.begin(txid)
            engine.update(txid, "t", (key,), {"v": ts})
            if commit:
                engine.log_pending_commit(txid)
                engine.commit(txid, ts)
                expected[key] = ts
            else:
                engine.abort(txid)
        snapshot = Snapshot(ts + 1)
        for key, value in expected.items():
            assert engine.read("t", (key,), snapshot)["v"] == value


class TestSkylineProperties:
    node_strategy = st.builds(
        NodeMetrics,
        name=st.text(min_size=1, max_size=4),
        staleness_ns=st.integers(0, 10**9),
        latency_ns=st.integers(0, 10**8),
        max_commit_ts=st.integers(0, 10**6),
        up=st.booleans(),
        is_primary=st.booleans(),
    )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(node_strategy, max_size=12))
    def test_skyline_members_are_undominated(self, nodes):
        frontier = skyline(nodes)
        live = [node for node in nodes if node.up]
        for member in frontier:
            assert member.up
            assert not any(other.dominates(member) for other in live)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(node_strategy, max_size=12))
    def test_every_live_node_dominated_by_some_skyline_member(self, nodes):
        frontier = skyline(nodes)
        live = [node for node in nodes if node.up]
        for node in live:
            assert (node in frontier
                    or any(member.dominates(node) or
                           (member.staleness_ns <= node.staleness_ns
                            and member.latency_ns <= node.latency_ns)
                           for member in frontier))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(node_strategy, max_size=12),
           st.integers(0, 10**9), st.integers(0, 10**6),
           st.integers(0, 10**9))
    def test_choose_node_respects_constraints(self, nodes, bound, min_ts, seed):
        rng = random.Random(seed)
        chosen = choose_node(nodes, staleness_bound_ns=bound,
                             min_commit_ts=min_ts, rng=rng)
        if chosen is not None:
            assert chosen.up
            assert chosen.staleness_ns <= bound
            assert chosen.is_primary or chosen.max_commit_ts >= min_ts

    @settings(max_examples=50, deadline=None)
    @given(st.lists(node_strategy, max_size=12))
    def test_choose_node_none_only_if_nothing_qualifies(self, nodes):
        chosen = choose_node(nodes)
        has_live = any(node.up for node in nodes)
        assert (chosen is not None) == has_live


    @settings(max_examples=200, deadline=None)
    @given(st.lists(node_strategy, max_size=12),
           st.one_of(st.none(), st.integers(0, 10**9)),
           st.one_of(st.none(), st.integers(0, 10**6)),
           st.integers(0, 10**8))
    def test_near_pool_matches_skyline_reference(self, nodes, bound, min_ts,
                                                 slack):
        qualifying = [
            node for node in nodes
            if node.up and (bound is None or node.staleness_ns <= bound)
            and (min_ts is None or node.is_primary
                 or node.max_commit_ts >= min_ts)]
        expected = []
        if qualifying:
            fastest = skyline(qualifying)[0].latency_ns
            expected = [node for node in qualifying
                        if node.latency_ns <= fastest + slack]
        got = near_pool(nodes, bound, min_ts, slack)
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))


class TestClogProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 30), st.booleans()),
                    min_size=1, max_size=30, unique_by=lambda t: t[0]))
    def test_commit_abort_state_machine(self, plan):
        clog = CommitLog()
        committed = {}
        ts = 0
        for txid, commit in plan:
            clog.begin(txid)
            ts += 1
            if commit:
                clog.commit(txid, ts)
                committed[txid] = ts
            else:
                clog.abort(txid)
        for txid, commit in plan:
            if commit:
                assert clog.commit_ts(txid) == committed[txid]
                assert clog.is_committed_before(txid, committed[txid])
                assert not clog.is_committed_before(txid, committed[txid] - 1)
            else:
                assert clog.commit_ts(txid) is None
