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
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

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
    leaves it when it fires (the holder's rule) or is withdrawn."""
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
