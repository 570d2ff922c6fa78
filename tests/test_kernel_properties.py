"""Property tests: the calendar-queue kernel is order-equivalent to a
(when, priority, seq) heap.

The PR that introduced the calendar queue replaced the heapq event loop
with current-tick lanes + per-timestamp buckets + a min-heap of distinct
future timestamps. Its correctness argument is that dispatch order is
*identical* to the old kernel's lexicographic (when, priority, seq) heap
order. These tests check exactly that against a reference heapq model,
over randomized programs that schedule urgent/normal events, deferred
callbacks and timeouts — including re-entrant scheduling from inside
callbacks (same-tick lane appends, the calendar queue's trickiest path) —
and, with withdrawals, that ``Environment.withdraw`` is the reference heap
with the withdrawn entries skipped.

The pinned-digest test in tests/test_perf_caches.py covers the same
invariant end-to-end on the full cluster scenario; this file covers it
exhaustively at the kernel surface.

``TestServe`` checks ``Environment.serve`` the same way: handlers started
from a deferred call (as ``Network._deliver`` starts a data node's) fire
the same actions in the same order whether served or run as processes,
and serving saves exactly the kickoff and the completion.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.events import (
    Event,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Timeout,
)

#: Node kinds and the priority each occupies in the reference model.
KINDS = {
    "event_urgent": PRIORITY_URGENT,
    "event_normal": PRIORITY_NORMAL,
    "defer": PRIORITY_NORMAL,    # defer() uses the normal lane/buckets
    "timeout": PRIORITY_NORMAL,  # Timeout schedules itself normally
}


@st.composite
def programs(draw, withdrawals: bool = False):
    """A forest of schedule operations. Each node fires at
    ``parent_fire_time + delay`` and schedules its children from inside
    its callback (re-entrant scheduling). With ``withdrawals``, a firing
    node first withdraws each of its victims (node ids) that is a
    ``defer`` still waiting to fire — delays are small, so victims are
    found in future buckets, in the running tick's lane, and at
    timestamps the children then schedule into again."""
    ids = itertools.count()

    def node(depth: int) -> tuple:
        delay = draw(st.integers(min_value=0, max_value=30))
        kind = draw(st.sampled_from(sorted(KINDS)))
        children = []
        if depth < 2:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                children.append(node(depth + 1))
        victims = ()
        if withdrawals:
            victims = tuple(draw(st.lists(
                st.integers(min_value=0, max_value=40), max_size=3)))
        return (next(ids), delay, kind, children, victims)

    return [node(0) for _ in range(draw(st.integers(min_value=1,
                                                    max_value=10)))]


def reference_order(program: list) -> tuple[list[tuple[int, int]], int]:
    """Dispatch order under the old kernel's model: a single heap ordered
    by (when, priority, seq), seq bumped on every push; a withdrawn entry
    keeps its seq and is skipped when popped. Returns the order and the
    number of pushes."""
    heap: list = []
    seq = itertools.count()
    fired: list[tuple[int, int]] = []
    waiting: set[int] = set()  # defer nodes pushed and not yet popped
    withdrawn: set[int] = set()

    def push(node, now):
        node_id, delay, kind = node[:3]
        heapq.heappush(heap, (now + delay, KINDS[kind], next(seq), node))
        if kind == "defer":
            waiting.add(node_id)

    for node in program:
        push(node, 0)
    while heap:
        when, _priority, _seq, node = heapq.heappop(heap)
        node_id, _delay, _kind, children, victims = node
        waiting.discard(node_id)
        if node_id in withdrawn:
            continue
        fired.append((node_id, when))
        for victim in victims:
            if victim in waiting:
                waiting.discard(victim)
                withdrawn.add(victim)
        for child in children:
            push(child, when)
    return fired, next(seq)


def schedule_on(env: Environment, node: tuple, fired: list,
                handles: dict) -> None:
    """``handles`` maps a waiting defer node to its kernel handle; a node
    leaves it when it fires or is withdrawn."""
    node_id, delay, kind, children, victims = node

    def fire(_arg) -> None:
        handles.pop(node_id, None)
        fired.append((node_id, env.now))
        for victim in victims:
            handle = handles.pop(victim, None)
            if handle is not None:
                env.withdraw(handle)
        for child in children:
            schedule_on(env, child, fired, handles)

    if kind == "defer":
        handles[node_id] = env.defer(delay, fire, None)
    elif kind == "timeout":
        timer = Timeout(env, delay)
        timer.callbacks.append(fire)
    else:
        event = Event(env)
        event.callbacks.append(fire)
        env.schedule(event, delay=delay, priority=KINDS[kind])


class TestCalendarQueueOrder:
    @settings(max_examples=200, deadline=None)
    @given(programs())
    def test_matches_heap_reference(self, program):
        env = Environment()
        fired: list[tuple[int, int]] = []
        for node in program:
            schedule_on(env, node, fired, {})
        env.run()
        assert (fired, env.events_scheduled) == reference_order(program)

    @settings(max_examples=100, deadline=None)
    @given(programs(), st.integers(min_value=1, max_value=17))
    def test_chunked_run_until_matches_drain(self, program, stride):
        """Driving the kernel through run(until=...) windows must produce
        the same history as a single drain (exercises the inlined
        until-int loop and its time-barrier handling)."""
        env = Environment()
        fired: list[tuple[int, int]] = []
        for node in program:
            schedule_on(env, node, fired, {})
        while env.peek() is not None:
            env.run(until=env.now + stride)
        assert (fired, env.events_scheduled) == reference_order(program)

    @settings(max_examples=300, deadline=None)
    @given(programs(withdrawals=True), st.integers(min_value=0, max_value=17))
    def test_withdrawals_match_heap_reference_with_entries_skipped(
            self, program, stride):
        """Withdrawn entries never run, everything else keeps its slot and
        its sequence number, drained (stride 0) or in run(until=) chunks —
        which also walks the empty ticks a withdrawal leaves behind."""
        env = Environment()
        fired: list[tuple[int, int]] = []
        handles: dict = {}
        for node in program:
            schedule_on(env, node, fired, handles)
        if stride:
            while env.peek() is not None:
                env.run(until=env.now + stride)
        else:
            env.run()
        assert (fired, env.events_scheduled) == reference_order(program)
        assert not handles and not env._buckets

    def test_withdrawn_future_entry_leaves_an_empty_tick(self):
        env = Environment()
        fired: list[str] = []
        handle = env.defer(10, fired.append, "withdrawn")
        env.withdraw(handle)
        assert not env._buckets and env.peek() == 10  # bare timestamp stays
        env.defer(10, fired.append, "rescheduled")  # same timestamp again
        env.defer(20, fired.append, "later")
        env.run()
        assert fired == ["rescheduled", "later"]
        assert env.now == 20 and env.events_scheduled == 3

    def test_withdrawal_in_the_running_tick_fires_as_a_noop(self):
        env = Environment()
        fired: list[str] = []
        handles = {}

        def first(_arg) -> None:
            fired.append("first")
            env.withdraw(handles.pop("second"))

        env.defer(5, first, None)
        handles["second"] = env.defer(5, fired.append, "second")
        env.defer(5, fired.append, "third")
        env.run()
        assert fired == ["first", "third"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=20), st.booleans(),
           st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                    max_size=8))
    def test_withdrawing_a_fired_entry_is_a_noop(self, delay, same_tick,
                                                 later):
        """A handle whose ``fn`` already ran names nothing: withdrawing it,
        in its own tick or after, cancels none of the defers made since,
        whatever instant they were made for."""
        env = Environment()
        fired: list = []
        handles = {}

        def defer_then_withdraw(_arg) -> None:
            for index, later_delay in enumerate(later):
                env.defer(later_delay, fired.append, index)
            env.withdraw(handles["done"])

        handles["done"] = env.defer(delay, fired.append, "done")
        if same_tick:
            env.defer(delay, defer_then_withdraw, None)
        else:
            env.run()
            defer_then_withdraw(None)
        env.run()
        by_delay = sorted(range(len(later)), key=later.__getitem__)
        assert fired == ["done", *by_delay]
        assert env.events_scheduled == 1 + same_tick + len(later)

    def test_same_tick_urgent_beats_earlier_normal(self):
        """Priority dominates insertion order within one tick."""
        env = Environment()
        fired: list[str] = []
        normal = Event(env)
        normal.callbacks.append(lambda _e: fired.append("normal"))
        env.schedule(normal, delay=5, priority=PRIORITY_NORMAL)
        urgent = Event(env)
        urgent.callbacks.append(lambda _e: fired.append("urgent"))
        env.schedule(urgent, delay=5, priority=PRIORITY_URGENT)
        env.run()
        assert fired == ["urgent", "normal"]

    def test_fifo_within_same_tick_and_priority(self):
        env = Environment()
        fired: list[int] = []
        for index in range(50):
            env.defer(7, fired.append, index)
        env.run()
        assert fired == list(range(50))


#: What a handler can do between two logged actions.
HANDLER_STEPS = ("timeout", "fired", "triggered", "fail", "nested", "defer",
                 "spawn")


@st.composite
def handler_programs(draw):
    """Handlers, each ``(delay, steps, hangs)``: delivered by a deferred
    call ``delay`` ns in, running ``steps`` (none is an immediate return),
    then returning or, with ``hangs``, waiting forever on an event nobody
    fires. Background defers interleave with the deliveries."""
    handlers = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=6),
        st.lists(st.sampled_from(HANDLER_STEPS), max_size=5),
        st.booleans()), min_size=1, max_size=8))
    background = draw(st.lists(st.integers(min_value=0, max_value=6),
                               max_size=6))
    return handlers, background


def run_handlers(program, serve: bool) -> tuple[list, int]:
    """Run ``program`` with every handler served or run as a process;
    returns the logged actions and ``events_scheduled``."""
    handlers, background = program
    env = Environment()
    log: list = []
    fired = env.event().succeed("fired")  # processed once t=0 starts

    def nested(ident, index):
        yield env.timeout(1)
        log.append((ident, index, "nested", env.now))
        return ident

    def child(ident, index):
        log.append((ident, index, "child", env.now))
        yield env.timeout(0)
        log.append((ident, index, "child-done", env.now))

    def handler(ident, steps, hangs):
        log.append((ident, "start", env.now))
        for index, step in enumerate(steps):
            if step == "timeout":
                value = yield env.timeout(index % 3, index)
            elif step == "fired":
                value = yield fired
            elif step == "triggered":
                value = yield env.event().succeed(index)
            elif step == "fail":
                try:
                    yield env.event().fail(ValueError(ident))
                except ValueError as exc:
                    value = exc.args
            elif step == "nested":
                value = yield from nested(ident, index)
            elif step == "defer":
                env.defer(0, log.append, (ident, index, "deferred"))
                value = None
            else:
                env.process(child(ident, index))
                value = None
            log.append((ident, index, step, value, env.now))
        if hangs:
            yield env.event()

    def deliver(spec) -> None:
        ident, steps, hangs = spec
        log.append((ident, "delivered", env.now))
        generator = handler(ident, steps, hangs)
        if serve:
            env.serve(generator)
        else:
            env.process(generator)

    for ident, (delay, steps, hangs) in enumerate(handlers):
        env.defer(delay, deliver, (ident, steps, hangs))
    for ident, delay in enumerate(background):
        env.defer(delay, log.append, ("background", ident))
    env.run()
    return log, env.events_scheduled


class TestServe:
    @settings(max_examples=300, deadline=None)
    @given(handler_programs())
    def test_served_handlers_match_processes(self, program):
        """Same actions in the same order; a served handler saves its
        kickoff, and its completion too if it finishes."""
        served, served_events = run_handlers(program, serve=True)
        spawned, spawned_events = run_handlers(program, serve=False)
        assert served == spawned
        handlers, _background = program
        finished = sum(1 for _delay, _steps, hangs in handlers if not hangs)
        hung = len(handlers) - finished
        assert spawned_events - served_events == 2 * finished + hung

    def test_first_step_runs_inside_the_caller(self):
        env = Environment()
        log = []

        def handler():
            log.append("first")
            yield env.timeout(5)
            log.append("second")

        env.serve(handler())
        assert log == ["first"] and env.events_scheduled == 1
        env.run()
        assert log == ["first", "second"] and env.now == 5

    def test_exception_in_first_step_propagates_to_the_caller(self):
        env = Environment()

        def handler():
            raise KeyError("boom")
            yield  # pragma: no cover - makes this a generator

        with pytest.raises(KeyError):
            env.serve(handler())

    def test_exception_after_a_yield_surfaces_from_run(self):
        env = Environment()

        def handler():
            yield env.timeout(3)
            raise KeyError("boom")

        env.defer(1, lambda _arg: env.serve(handler()), None)
        with pytest.raises(KeyError):
            env.run()
        assert env.now == 4

    def test_uncaught_failed_event_surfaces_from_run(self):
        env = Environment()

        def handler():
            yield env.event().fail(ValueError("lost"))

        env.defer(0, lambda _arg: env.serve(handler()), None)
        with pytest.raises(ValueError, match="lost"):
            env.run()

    def test_yielding_a_non_event_raises(self):
        env = Environment()

        def handler():
            yield env.timeout(1)
            yield 42

        env.serve(handler())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()
