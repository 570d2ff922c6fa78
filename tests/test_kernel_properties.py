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
and, with withdrawals, that ``Environment.arm`` / ``Environment.withdraw``
is the reference heap with the withdrawn entries skipped: an armed entry
keeps its arm-time place, and counts as a push only if it is still armed
when its tick comes.

The pinned-digest test in tests/test_perf_caches.py covers the same
invariant end-to-end on the full cluster scenario; this file covers it
exhaustively at the kernel surface.

``TestServe`` checks ``Environment.serve`` the same way: handlers started
from a deferred call (as ``Network._deliver`` starts a data node's) fire
the same actions in the same order whether served or run as processes,
and serving saves exactly the kickoff and the completion.

``TestReplyInPlace`` checks ``Environment.resolve`` through
``Network._deliver``: programs in which some deferred calls are RPC
reply deliveries fire in the reference heap's order, and each reply whose
delivery is the last entry of its tick saves exactly its push.

``TestGrantInPlace`` checks the same primitive at its other callers: a
free ``Semaphore`` slot, a free or re-entrant ``LockTable`` lock and a
``settle`` whose last child has landed. Programs in which handlers wait on
such grants fire in the order of the reference heap, where every grant is
pushed, and each grant whose trigger was the last entry of its tick saves
exactly its push.
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
    settle,
)
from repro.sim.network import Message, Network, _Reply
from repro.sim.resources import Semaphore
from repro.storage.locks import LockTable

#: Node kinds and the priority each occupies in the reference model.
KINDS = {
    "event_urgent": PRIORITY_URGENT,
    "event_normal": PRIORITY_NORMAL,
    "defer": PRIORITY_NORMAL,    # defer() uses the normal lane/buckets
    "timeout": PRIORITY_NORMAL,  # Timeout schedules itself normally
    "arm": PRIORITY_NORMAL,      # arm() is spliced into the normal lane
}


@st.composite
def programs(draw, withdrawals: bool = False):
    """A forest of schedule operations. Each node fires at
    ``parent_fire_time + delay`` and schedules its children from inside
    its callback (re-entrant scheduling). With ``withdrawals``, some nodes
    are armed, and a firing node first withdraws each of its victims
    (node ids) that is an ``arm`` still waiting to fire — delays are
    small, so victims are found in the armed ledger, in the running
    tick's lane, and at timestamps the children then schedule into
    again."""
    ids = itertools.count()
    kinds = sorted(KINDS) if withdrawals else sorted(set(KINDS) - {"arm"})

    def node(depth: int) -> tuple:
        delay = draw(st.integers(min_value=0, max_value=30))
        kind = draw(st.sampled_from(kinds))
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
    by (when, priority, seq), seq bumped on every push; an armed entry is
    pushed when it is armed, and a withdrawn one keeps its seq and is
    skipped when popped. Returns the order and the number of pushes that
    count: an armed entry withdrawn before its tick never reached the
    queue."""
    heap: list = []
    seq = itertools.count()
    fired: list[tuple[int, int]] = []
    waiting: dict[int, int] = {}  # arm nodes pushed and not yet popped: due
    withdrawn: set[int] = set()
    never_due = 0

    def push(node, now):
        node_id, delay, kind = node[:3]
        heapq.heappush(heap, (now + delay, KINDS[kind], next(seq), node))
        if kind == "arm":
            waiting[node_id] = now + delay

    for node in program:
        push(node, 0)
    while heap:
        when, _priority, _seq, node = heapq.heappop(heap)
        node_id, _delay, _kind, children, victims = node
        waiting.pop(node_id, None)
        if node_id in withdrawn:
            continue
        fired.append((node_id, when))
        for victim in victims:
            due = waiting.pop(victim, None)
            if due is not None:
                withdrawn.add(victim)
                never_due += due > when
        for child in children:
            push(child, when)
    return fired, next(seq) - never_due


def schedule_on(env: Environment, node: tuple, fired: list,
                handles: dict, last=None) -> None:
    """``handles`` maps a waiting arm node to its kernel handle; a node
    leaves it when it fires or is withdrawn. ``last(node_id)``, if given,
    runs as the last action of every defer node's firing (an RPC reply's
    delivery, a grant; see :func:`rpc_programs`, :func:`grant_programs`)."""
    node_id, delay, kind, children, victims = node

    def fire(_arg) -> None:
        handles.pop(node_id, None)
        fired.append((node_id, env.now))
        for victim in victims:
            handle = handles.pop(victim, None)
            if handle is not None:
                env.withdraw(handle)
        for child in children:
            schedule_on(env, child, fired, handles, last)
        if last is not None:
            last(node_id)

    if kind == "defer":
        env.defer(delay, fire, None)
    elif kind == "arm":
        handles[node_id] = env.arm(delay, fire, None)
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
        """Withdrawn entries never run, everything else keeps its place,
        drained (stride 0) or in run(until=) chunks — which also walks the
        empty ticks a withdrawal leaves behind."""
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
        assert not handles and not env._buckets and not env._armed

    def test_withdrawn_future_entry_leaves_an_empty_tick(self):
        """A withdrawn arm never reaches the queue: no sequence number, no
        bucket. Its timestamp stays on the heap, and its tick only moves
        the clock. A defer to an instant that is already armed pushes the
        timestamp a second time; the copy is one more empty tick."""
        env = Environment()
        fired: list[str] = []
        handle = env.arm(10, fired.append, "withdrawn")
        env.withdraw(handle)
        assert not env._armed and not env._buckets and env.peek() == 10
        assert env.events_scheduled == 0
        lanes = env._lane_urgent, env._lane_normal
        env.run(until=10)
        assert env.now == 10
        assert env._lane_urgent is lanes[0] and env._lane_normal is lanes[1]
        env.arm(10, fired.append, "armed")
        handle = env.arm(10, fired.append, "withdrawn")
        env.defer(10, fired.append, "deferred")
        env.withdraw(handle)
        assert env._times == [20, 20]
        env.run()
        assert fired == ["armed", "deferred"]
        assert env.now == 20 and env.events_scheduled == 2

    def test_withdrawal_in_the_running_tick_fires_as_a_noop(self):
        """Withdrawn inside its own tick, after the splice: the entry stays
        in the lane as a no-op and keeps the sequence number the splice
        consumed."""
        env = Environment()
        fired: list[str] = []
        handles = {}

        def first(_arg) -> None:
            fired.append("first")
            env.withdraw(handles.pop("second"))

        env.defer(5, first, None)
        handles["second"] = env.arm(5, fired.append, "second")
        env.defer(5, fired.append, "third")
        assert env.events_scheduled == 2
        env.run()
        assert fired == ["first", "third"] and env.events_scheduled == 3

    @pytest.mark.parametrize("later", ["defer", "timeout", "urgent"])
    @pytest.mark.parametrize("before", [False, True])
    def test_push_from_a_later_tick_lands_behind_the_arm(self, later, before):
        """An arm for t=10 made at t=0 runs ahead of a normal entry that a
        t=5 tick pushes for t=10 (it pushes the timestamp again), and behind
        one pushed before it; an urgent entry runs first whatever its
        sequence number."""
        env = Environment()
        fired: list[str] = []
        if before:
            env.defer(10, fired.append, "before")
        env.arm(10, fired.append, "armed")

        def push_later(_arg) -> None:
            if later == "defer":
                env.defer(5, fired.append, later)
            elif later == "timeout":
                Timeout(env, 5).callbacks.append(
                    lambda _event: fired.append(later))
            else:
                event = Event(env)
                event.callbacks.append(lambda _event: fired.append(later))
                env.schedule(event, delay=5, priority=PRIORITY_URGENT)

        env.defer(5, push_later, None)
        env.run()
        expected = ["before"] * before + ["armed"]
        if later == "urgent":
            expected.insert(0, later)
        else:
            expected.append(later)
        assert fired == expected
        assert env.now == 10 and env.events_scheduled == 3 + before

    @pytest.mark.parametrize("first_stays", [False, True])
    def test_two_arms_for_one_instant_with_a_withdrawal_between(
            self, first_stays):
        """Each arm is spliced at its slot plus the number of live arms
        spliced before it: a withdrawn arm leaves no gap, and a defer made
        between two arms stays between them."""
        env = Environment()
        fired: list[str] = []
        env.defer(10, fired.append, "p0")
        first = env.arm(10, fired.append, "first")
        env.defer(10, fired.append, "p1")
        between = env.arm(10, fired.append, "between")
        env.withdraw(between if first_stays else first)
        env.arm(10, fired.append, "second")
        env.defer(10, fired.append, "p2")
        env.run()
        kept = "first" if first_stays else "between"
        order = ["p0", "first", "p1", "between", "second", "p2"]
        assert fired == [name for name in order
                         if name not in ("first", "between") or name == kept]
        assert env.events_scheduled == 5

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=20), st.booleans(),
           st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                    max_size=8))
    def test_withdrawing_a_fired_entry_is_a_noop(self, delay, same_tick,
                                                 later):
        """A handle whose ``fn`` already ran names nothing: withdrawing it,
        in its own tick or after, cancels none of the arms made since,
        whatever instant they were made for."""
        env = Environment()
        fired: list = []
        handles = {}

        def defer_then_withdraw(_arg) -> None:
            for index, later_delay in enumerate(later):
                env.arm(later_delay, fired.append, index)
            env.withdraw(handles["done"])

        handles["done"] = env.arm(delay, fired.append, "done")
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


#: The two payloads ``Network._deliver`` completes a caller's RPC with.
RPC_OUTCOMES = ("__rpc_reply__", "__rpc_fail__")


@st.composite
def rpc_programs(draw):
    """A :func:`programs` forest in which some ``defer`` nodes are RPC
    reply deliveries: such a node fires, schedules its children, and as
    its last action hands ``Network._deliver`` a reply or a failure for an
    event whose one callback fires the reply node ``(node_id, "reply")``
    (and defuses a failure, as a waiting process does). Returns the forest
    and ``{node_id: outcome}``."""
    program = draw(programs())
    replies = {}

    def walk(nodes) -> None:
        for node_id, _delay, kind, children, _victims in nodes:
            if kind == "defer":
                outcome = draw(st.sampled_from((None,) + RPC_OUTCOMES))
                if outcome is not None:
                    replies[node_id] = outcome
            walk(children)

    walk(program)
    return program, replies


def with_reply_nodes(program: list, replies: dict) -> list:
    """The reference model's view of an RPC program: a delivery pushes the
    reply event (a normal event at delay 0) after its children."""
    return [(node_id, delay, kind,
             with_reply_nodes(children, replies)
             + ([((node_id, "reply"), 0, "event_normal", [], ())]
                if node_id in replies else []),
             victims)
            for node_id, delay, kind, children, victims in program]


def landed_alone(fired: list, tag: str = "reply") -> int:
    """Pushes of kind ``tag`` (node ``(parent, tag)``) whose trigger was
    the last entry of its tick. Everything still queued at that tick fires
    before the event pushed last, so such an event landed alone exactly
    when it fires right after its parent."""
    return sum(1 for before, after in zip(fired, fired[1:])
               if after[0] == (before[0], tag))


def reply_last(network: Network, replies: dict, fired: list):
    """A :func:`schedule_on` ``last`` that delivers each reply node's reply."""
    def last(node_id) -> None:
        if node_id in replies:
            deliver_reply(network, node_id, replies[node_id], fired)
    return last


def rpc_network() -> Network:
    network = Network(Environment())
    network.add_endpoint("caller", "r1")
    return network


def deliver_reply(network: Network, node_id, outcome: str, fired: list,
                  defuse: bool = True) -> _Reply:
    """Hand ``Network._deliver`` an RPC reply for ``node_id``; called as
    the last action of the running entry."""
    env = network.env
    reply = _Reply(env)
    reply.deadline = None

    def on_reply(event) -> None:
        if defuse:
            event.defused = True
        fired.append(((node_id, "reply"), env.now))

    reply.callbacks.append(on_reply)
    value = ValueError(node_id) if outcome == "__rpc_fail__" else node_id
    network._deliver(Message("callee", "caller", (outcome, reply, value), 64,
                             env.now, env.now))
    return reply


class TestReplyInPlace:
    @settings(max_examples=300, deadline=None)
    @given(rpc_programs(), st.integers(min_value=0, max_value=17))
    def test_rpc_programs_match_heap_reference(self, program_replies,
                                               stride):
        """Same order as the reference heap, drained (stride 0) or in
        run(until=) chunks; each reply that landed alone saved its push."""
        program, replies = program_replies
        network = rpc_network()
        env = network.env
        fired: list = []
        for node in program:
            schedule_on(env, node, fired, {},
                        reply_last(network, replies, fired))
        if stride:
            while env.peek() is not None:
                env.run(until=env.now + stride)
        else:
            env.run()
        expected, pushes = reference_order(with_reply_nodes(program,
                                                            replies))
        assert fired == expected
        assert env.events_scheduled == pushes - landed_alone(expected)

    @pytest.mark.parametrize("outcome", RPC_OUTCOMES)
    @pytest.mark.parametrize("alone", [True, False])
    def test_reply_alone_is_dispatched_in_place(self, outcome, alone):
        network = rpc_network()
        env = network.env
        fired: list = []
        replies: list = []
        env.defer(5, lambda _arg: replies.append(
            deliver_reply(network, "rpc", outcome, fired)), None)
        if not alone:
            env.defer(5, fired.append, "behind")
        env.run()
        assert fired == ([(("rpc", "reply"), 5)] if alone
                         else ["behind", (("rpc", "reply"), 5)])
        assert env.events_scheduled == (1 if alone else 3)
        assert replies[0].processed and replies[0].ok is (
            outcome == "__rpc_reply__")

    @pytest.mark.parametrize("alone", [True, False])
    def test_undefused_failed_reply_raises_out_of_run(self, alone):
        network = rpc_network()
        env = network.env
        fired: list = []
        env.defer(5, lambda _arg: deliver_reply(
            network, "rpc", "__rpc_fail__", fired, defuse=False), None)
        if not alone:
            env.defer(5, fired.append, "behind")
        env.defer(6, fired.append, "later")
        with pytest.raises(ValueError, match="rpc"):
            env.run()
        assert env.now == 5
        assert fired == ([] if alone else ["behind"]) + [(("rpc", "reply"), 5)]

    @pytest.mark.parametrize("outcome", RPC_OUTCOMES)
    def test_run_until_a_reply_dispatched_in_place(self, outcome):
        """``run(until=reply)`` stops right after the in-place dispatch
        and returns the reply's value or raises its failure."""
        network = rpc_network()
        env = network.env
        fired: list = []
        reply = _Reply(env)
        reply.deadline = None
        value = ValueError("rpc") if outcome == "__rpc_fail__" else "rpc"
        env.defer(5, network._deliver, Message(
            "callee", "caller", (outcome, reply, value), 64, 0, 5))
        env.defer(6, fired.append, "later")
        if outcome == "__rpc_reply__":
            assert env.run(until=reply) == "rpc"
        else:
            with pytest.raises(ValueError, match="rpc"):
                env.run(until=reply)
        assert env.now == 5 and not fired and env.events_scheduled == 2


#: The waits a grant handler makes, one after another: a worker-pool slot
#: (the pool never fills), one of two row locks of its own (taken again,
#: re-entrantly, when drawn twice), or a settle over its previous wait,
#: which has landed by then.
GRANTS = ("slot", "lock 0", "lock 1", "settle")


@st.composite
def grant_programs(draw):
    """A :func:`programs` forest in which some ``defer`` nodes end by
    serving a handler that makes a chain of waits drawn from
    :data:`GRANTS` (never a settle first), each already satisfied when it
    is made, and some end by delivering an RPC reply whose one waiter is a
    ``settle``: the reply is its last child, so settle's final
    ``on_child`` runs inside the reply's dispatch. Returns the forest and
    ``{node_id: chain or "settled reply"}``."""
    program = draw(programs())
    plans = {}

    def walk(nodes) -> None:
        for node_id, _delay, kind, children, _victims in nodes:
            if kind == "defer":
                plan = draw(st.sampled_from((None, "chain", "settled reply")))
                if plan == "chain":
                    plan = [draw(st.sampled_from(GRANTS[:-1]))] + draw(
                        st.lists(st.sampled_from(GRANTS), max_size=2))
                if plan is not None:
                    plans[node_id] = plan
            walk(children)

    walk(program)
    return program, plans


def pushed_chain(parent, tags: list) -> list:
    """Reference nodes for events pushed one by the dispatch of the other,
    at delay 0 on the normal lane: ``(parent, tags[0])`` first."""
    if not tags:
        return []
    ident = (parent, tags[0])
    return [(ident, 0, "event_normal", pushed_chain(ident, tags[1:]), ())]


def with_grant_nodes(program: list, plans: dict) -> list:
    """The reference model's view of a grant program, where every grant is
    pushed: a chain's first grant after the node's children, each further
    grant by the dispatch of the one before; a settled reply is the reply
    event, whose dispatch pushes the settle."""
    nodes = []
    for node_id, delay, kind, children, victims in program:
        children = with_grant_nodes(children, plans)
        plan = plans.get(node_id)
        if plan == "settled reply":
            children += pushed_chain(node_id, ["reply", "grant"])
        elif plan is not None:
            children += pushed_chain(node_id, ["grant"] * len(plan))
        nodes.append((node_id, delay, kind, children, victims))
    return nodes


def grant_last(network: Network, plans: dict, fired: list):
    """A :func:`schedule_on` ``last`` that runs each node's plan: serve
    the chain's handler, which logs ``(previous, "grant")`` after each
    wait, or deliver the settled reply."""
    env = network.env
    pool = Semaphore(env, capacity=1 << 30)
    locks = LockTable(env)

    def chain(node_id, plan):
        ident, wait = node_id, None
        for kind in plan:
            if kind == "slot":
                wait = pool.acquire()
            elif kind == "settle":
                wait = settle(env, [wait])
            else:
                wait = locks.acquire(1, "t", (node_id, kind))
            yield wait
            ident = (ident, "grant")
            fired.append((ident, env.now))

    def settled(node_id, reply):
        yield settle(env, [reply])
        fired.append((((node_id, "reply"), "grant"), env.now))

    def last(node_id) -> None:
        plan = plans.get(node_id)
        if plan is None:
            return
        if plan != "settled reply":
            env.serve(chain(node_id, plan))
            return
        reply = _Reply(env)
        reply.deadline = None
        reply.callbacks.append(lambda _event: fired.append(
            ((node_id, "reply"), env.now)))
        env.serve(settled(node_id, reply))
        network._deliver(Message("callee", "caller",
                                 ("__rpc_reply__", reply, node_id), 64,
                                 env.now, env.now))

    return last


class TestGrantInPlace:
    @settings(max_examples=300, deadline=None)
    @given(grant_programs(), st.integers(min_value=0, max_value=17))
    def test_grant_programs_match_heap_reference(self, program_plans,
                                                 stride):
        """Same order as the reference heap, where every grant is pushed,
        drained (stride 0) or in run(until=) chunks; each grant and each
        reply that landed alone saved its push."""
        program, plans = program_plans
        network = rpc_network()
        env = network.env
        fired: list = []
        last = grant_last(network, plans, fired)
        for node in program:
            schedule_on(env, node, fired, {}, last)
        if stride:
            while env.peek() is not None:
                env.run(until=env.now + stride)
        else:
            env.run()
        expected, pushes = reference_order(with_grant_nodes(program, plans))
        assert fired == expected
        assert env.events_scheduled == (pushes - landed_alone(expected, "grant")
                                        - landed_alone(expected, "reply"))

    @pytest.mark.parametrize("wait", ["slot", "lock", "relock"])
    @pytest.mark.parametrize("alone", [True, False])
    def test_free_wait_comes_back_processed_when_alone(self, wait, alone):
        """A wait that is already satisfied comes back processed (a yield
        consumes it at once; ``add_callback`` would raise) when it is made
        in the last entry of its tick, and triggered but pending
        otherwise."""
        env = Environment()
        locks = LockTable(env)
        states: list = []

        def make(_arg) -> None:
            if wait == "slot":
                grant = Semaphore(env, 1).acquire()
            else:
                if wait == "relock":
                    locks.acquire(1, "t", (1,))
                grant = locks.acquire(1, "t", (1,))
            states.append((grant.triggered, grant.processed))

        env.defer(5, make, None)
        if not alone:
            env.defer(5, states.append, "behind")
        env.run()
        assert states[0] == (True, alone)
