"""Property test: shippers of one WAL that share a flush timer ship exactly
as if each had armed its own.

A ``LogShipper`` whose base window ends at the instant another shipper of
its WAL armed last joins that timer (``Environment.armed_tail``: nothing
armed or queued for the instant since) instead of arming its own, and the
shared timer flushes its members in join order. The reference is the
shipper before timers were shared: every shipper arms its own timer.

Programs put one to three shippers on one WAL and drive it with appends of
random sizes at random times (some overflow the batch and flush at once),
backlog changes that widen a shipper's window, and pause/resume. Noise
subscribers between the shippers queue, arm and withdraw entries at the
flush instant while an append fans out, so that some shippers may join and
some may not. Each program runs twice, and the two runs must log the same
actions, flushes (instant, channel, records, wire bytes), deliveries and
noise entries in the same order. ``events_scheduled`` must come out lower
by exactly what the reference predicts: it groups the reference's own
timers by the sharing rule, and each group that comes due with ``n`` live
members saves ``n - 1`` sequence numbers.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.replication import LogShipper, ShipperConfig
from repro.sim.core import Environment
from repro.sim.transport import TransportConfig
from repro.storage.redo import RedoInsert
from repro.storage.wal import WalBuffer

FLUSH_NS = 40
LATENCY_NS = 30
CONFIG = ShipperConfig(transport=TransportConfig.baseline(),
                       max_batch_bytes=200, flush_interval_ns=FLUSH_NS,
                       backlog_per_widen=10, max_widen=3)


class _Link:
    bandwidth_bps = 0


class FakeNetwork:
    """The three calls a shipper makes. ``send`` logs the flush and queues
    its delivery, which logs again when it lands."""

    def __init__(self, env: Environment, log: list):
        self.env = env
        self.log = log

    def rtt_ns(self, _src, _dst) -> int:
        return 2 * LATENCY_NS

    def link(self, _src, _dst) -> _Link:
        return _Link()

    def send(self, _src, dst, payload, size_bytes, extra_delay_ns=0) -> None:
        lsns = tuple(record.lsn for record in payload[2])
        self.log.append(("flush", self.env.now, dst, lsns, size_bytes))
        self.env.defer(LATENCY_NS + extra_delay_ns, self.log.append,
                       ("delivered", dst, lsns))


def own_timer_shippers(groups: dict) -> type:
    """The reference shipper class: every shipper arms, withdraws and fires
    its own timer. ``groups`` maps each armed timer to the first timer of
    the group the sharing rule would merge it into, read off the raw
    ledger: a joining arm whose instant's newest armed entry is a member
    and whose bucket has not grown since that entry was armed."""

    class OwnTimerShipper(LogShipper):
        def _arm(self, delay_ns: int, join: bool = False) -> None:
            self._cancel_timer()
            env = self.env
            when = env.now + delay_ns
            armed = env._armed.get(when, [])
            queued = len(env._buckets.get(when, []))
            tail = armed[-1] if armed and armed[-1].slot == queued else None
            self._timer = call = env.arm(delay_ns, self._own_timer, None)
            groups[call] = groups[tail] if join and tail in groups else call

        def _cancel_timer(self) -> None:
            if self._timer is not None:
                self.env.withdraw(self._timer)
                self._timer = None

        def _own_timer(self, _arg) -> None:
            self._timer = None
            if not self.paused:
                self._flush()

    return OwnTimerShipper


def run(program: dict, shipper_class: type, on_env=None):
    """Build the program's WAL and shippers, drive it to the end, and
    return (log, events_scheduled)."""
    env = Environment()
    if on_env is not None:
        on_env(env)
    log: list = []
    network = FakeNetwork(env, log)
    wal = WalBuffer()
    keys = itertools.count()

    def append(size: int) -> None:
        wal.append(RedoInsert(txid=1, table="t", key=(next(keys),),
                              row={"v": "x" * size}))

    for size in program["preload"]:
        append(size)
    noise_plan: list = []
    noise_armed: list = []
    noise_ids = itertools.count()

    def noise(_record) -> None:
        choice = noise_plan.pop(0) if noise_plan else "none"
        if choice == "defer":
            env.defer(FLUSH_NS, log.append, ("noise", next(noise_ids)))
        elif choice == "arm":
            noise_armed.append(env.arm(FLUSH_NS, log.append,
                                       ("noise", next(noise_ids))))
        elif choice == "withdraw" and noise_armed:
            env.withdraw(noise_armed.pop(0))

    backlog = [0] * program["shippers"]
    shippers = []
    for index in range(program["shippers"]):
        if index in program["noise_before"]:
            wal.subscribe(noise)
        shippers.append(shipper_class(
            env, network, wal, "primary", f"r{index}", config=CONFIG,
            backlog_fn=lambda index=index: backlog[index]))
    if program["shippers"] in program["noise_before"]:
        wal.subscribe(noise)

    def act(step) -> None:
        number, (kind, index, value, plan) = step
        log.append(("act", env.now, number))
        if kind == "append":
            noise_plan[:] = plan
            append(value)
        elif index < len(shippers):
            if kind == "backlog":
                backlog[index] = value
            elif kind == "pause":
                shippers[index].pause()
            else:
                shippers[index].resume()

    for number, step in enumerate(program["steps"]):
        env.defer(step[0], act, (number, step[1]))
    env.run()
    return log, env.events_scheduled


NOISE = st.sampled_from(["none", "defer", "arm", "withdraw"])
STEP = st.tuples(
    st.integers(min_value=0, max_value=30).map(lambda tick: tick * 10),
    st.one_of(
        st.tuples(st.just("append"), st.just(0),
                  st.integers(min_value=0, max_value=150),
                  st.lists(NOISE, max_size=3)),
        st.tuples(st.just("backlog"), st.integers(0, 2),
                  st.sampled_from([0, 10, 25]), st.just(())),
        st.tuples(st.sampled_from(["pause", "resume"]), st.integers(0, 2),
                  st.just(0), st.just(())),
    ))
PROGRAMS = st.fixed_dictionaries({
    "shippers": st.integers(min_value=1, max_value=3),
    "preload": st.lists(st.integers(min_value=0, max_value=60), max_size=2),
    "noise_before": st.sets(st.integers(min_value=0, max_value=3),
                            max_size=2),
    "steps": st.lists(STEP, min_size=1, max_size=25),
})


class TestSharedFlushTimer:
    @settings(max_examples=300, deadline=None)
    @given(PROGRAMS)
    def test_shared_timers_ship_as_own_timers_would(self, program):
        groups: dict = {}
        saved = [0]

        def predict_savings(env: Environment) -> None:
            advance = env._advance

            def counting_advance(when: int) -> None:
                roots = [groups[call] for call in env._armed.get(when, ())
                         if call in groups]
                saved[0] += len(roots) - len(set(roots))
                advance(when)

            env._advance = counting_advance

        own_log, own_events = run(program, own_timer_shippers(groups),
                                  on_env=predict_savings)
        shared_log, shared_events = run(program, LogShipper)
        assert shared_log == own_log
        assert shared_events == own_events - saved[0]

    def test_two_shippers_on_one_append_share_one_entry(self):
        program = {"shippers": 2, "preload": [], "noise_before": set(),
                   "steps": [(0, ("append", 0, 10, ()))]}
        own_log, own_events = run(program, own_timer_shippers({}))
        shared_log, shared_events = run(program, LogShipper)
        assert shared_log == own_log
        assert [entry[2] for entry in shared_log
                if entry[0] == "flush"] == ["r0", "r1"]
        assert shared_events == own_events - 1

    def test_an_entry_queued_in_between_keeps_timers_apart(self):
        program = {"shippers": 2, "preload": [], "noise_before": {1},
                   "steps": [(0, ("append", 0, 10, ("defer",)))]}
        own_log, own_events = run(program, own_timer_shippers({}))
        shared_log, shared_events = run(program, LogShipper)
        assert shared_log == own_log
        assert shared_events == own_events
