"""The discrete-event simulation kernel.

:class:`Environment` owns the event queue and the simulated clock (integer
nanoseconds of *true* time). :class:`Process` drives a Python generator:
each ``yield``-ed :class:`~repro.sim.events.Event` suspends the process
until the event fires, and the event's value is sent back into the
generator (or its exception thrown). Ties at equal timestamps are broken
by a monotonically increasing sequence number, so two runs with the same
seeds produce identical histories.

The queue is a calendar that keeps a binary heap's ``(when, priority,
seq)`` order without building the tuples (DESIGN.md §4g):

- *Current-tick lanes*: two FIFO lists, urgent and normal, walked by
  cursor. Work for ``now`` is a bare append; FIFO order is sequence order
  because ``_seq`` only grows, and the urgent lane drains first.
- *Per-timestamp buckets* (``dict[when -> list]``, and a second dict for
  the rare future urgent entry) hold future work in sequence order.
- *An armed ledger* (``dict[when -> list]``) holds the guard timers that
  may be taken back (:meth:`Environment.arm`, :meth:`Environment.withdraw`):
  RPC and lock-wait deadlines, the shipper's flush timer. Each remembers
  its *slot*, the length of its instant's bucket when it was armed; when
  that instant comes due the live ones are spliced into the normal lane
  at ``slot`` plus the number spliced before them, which is where their
  push would have stood. Buckets only grow, so the slot stays exact.
  :meth:`Environment.armed_tail` names the entry a new arm for an instant
  would land right behind, so a caller can add its work to that entry
  instead: the shippers of one WAL share one flush timer that way.
- *A min-heap of distinct future timestamps*: each enters when its bucket
  or armed list is made (rarely twice). Advancing the clock pops one and
  swaps its entries in as the lanes; one left with nothing, because every
  entry armed for it was withdrawn, is an empty tick that only moves the
  clock. Time only moves forward, so nothing goes stale.

Every push consumes one sequence number (``events_scheduled``); an armed
entry consumes its one when it comes due, so a deadline withdrawn before
then never counts. One rule saves pushes: a push that
:meth:`Environment.run` would pop next may be dispatched where it is
made, as long as the running entry does nothing after it but hand the
event to its waiter. :meth:`Environment.resolve` applies it to a
triggered event: an RPC reply delivered as the last entry of its tick
(``Network._deliver``), and three waits already satisfied when they are
made: a free worker-pool slot (``Semaphore.acquire``), a
free or re-entrant row lock (``LockTable.acquire``) and a fan-out whose
last reply has just landed (``settle``); and two hand-offs that end the
entry making them: a redo batch handed to an idle replayer
(``Replayer.enqueue``) and an ack that satisfies one sync commit
(``AckTracker.release``). :meth:`Environment.tick_drained` is the test
``resolve`` makes; the replayer also asks it before it applies a batch of
row changes only on arrival. :meth:`Environment.serve`
applies it to a handler's kickoff, and drops the completion nobody joins.
:meth:`Environment.defer` makes the pushes that remain cheaper: it queues
a bare ``fn(arg)`` with no :class:`Event`. Nothing is recycled, so no
:meth:`Environment.arm` handle can come to name somebody else's work.

:meth:`Environment.run` is one loop with the dispatch inlined, and the
cyclic collector is parked while it runs. ``now`` is a plain attribute,
and ``metrics_on`` / ``trace_on`` / ``series_on`` cache the observability
toggles, so a disabled hook site costs one attribute test.
"""

from __future__ import annotations

import gc
import typing
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.monitor import NULL_MONITOR
from repro.obs.timeseries import NULL_TIMESERIES
from repro.obs.trace import NULL_TRACER
from repro.sim.events import Event, Interrupt, Timeout, PRIORITY_NORMAL, PRIORITY_URGENT


class _Call:
    """A queue entry that invokes ``fn(arg)`` when it fires — the
    allocation-free alternative to a triggered :class:`Event` with one
    callback; nothing can wait on one. An armed entry also carries
    ``when``, the tick ``arm`` armed it for (where ``withdraw`` looks for
    it), and ``slot``, its place in that tick's normal lane."""

    __slots__ = ("fn", "arg", "when", "slot")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg


class _StartSignal:
    """The do-nothing "event" every generator's first resume is sent:
    ``_resume`` reads only ``_ok`` and ``_value`` on the success path."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _StartSignal()


def _withdrawn(_arg) -> None:
    """What a withdrawn entry already in the current tick's lanes runs."""


def _collect_as_scheduled() -> None:
    """The one collection the collector's own threshold schedule would have
    reached while :meth:`Environment.run` parked it: the oldest generation
    the run's allocations (``gc.get_count``) would have pushed past its
    threshold, or none."""
    threshold0, threshold1, threshold2 = gc.get_threshold()
    allocated, young, old = gc.get_count()
    if not threshold0 or allocated <= threshold0:
        return
    young += allocated // (threshold0 + 1)
    generation = 0
    if young > threshold1:
        generation = 2 if old + young // (threshold1 + 1) > threshold2 else 1
    gc.collect(generation)


class Process(Event):
    """Wraps a generator as a simulation process.

    The process is itself an event that fires when the generator returns
    (success, with the return value) or raises (failure). Other processes
    can therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: typing.Generator,
                 name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        # Kick off the generator at the current time, urgently so a process
        # spawned "now" starts before pending normal-priority events. The
        # shared start signal replaces a per-process init Event; it consumes
        # one sequence number exactly like the Event used to.
        env._seq += 1
        env._lane_urgent.append(_Call(self._resume, _START))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must currently be suspended on an event; the interrupt
        detaches it from that event and resumes it with the exception.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self._target is None:
            raise SimulationError(f"cannot interrupt process {self.name!r} before it starts")
        carrier = Event(self.env)
        carrier._ok = False
        carrier._exception = Interrupt(cause)
        carrier.defused = True
        # Detach from the event the process was waiting on. The original
        # event may still fire later; its value is simply not delivered.
        target_callbacks = self._target.callbacks
        if target_callbacks is not None and self._resume in target_callbacks:
            target_callbacks.remove(self._resume)
        self._target = None
        carrier.callbacks.append(self._resume)
        self.env.schedule(carrier, priority=PRIORITY_URGENT)

    def _resume(self, event) -> None:
        """Advance the generator with ``event``'s outcome."""
        generator = self._generator
        while True:
            try:
                if event._ok:
                    yielded = generator.send(event._value)
                else:
                    event.defused = True
                    yielded = generator.throw(event._exception)
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                self._ok = False
                self._exception = exc
                self.env.schedule(self, priority=PRIORITY_URGENT)
                return

            if not isinstance(yielded, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {yielded!r}")
            callbacks = yielded.callbacks
            if callbacks is None:
                # Already fired and delivered: consume its value immediately.
                event = yielded
                continue
            callbacks.append(self._resume)
            self._target = yielded
            return


class _Served:
    """A generator driven by :meth:`Environment.serve`: the resume half of
    :class:`Process` without the event half. Nothing can join or interrupt
    it, so it has no name, no target and no completion."""

    __slots__ = ("_generator",)

    def __init__(self, generator: typing.Generator):
        self._generator = generator

    def _resume(self, event) -> None:
        """Advance the generator with ``event``'s outcome, exactly as
        ``Process._resume`` does; a return ends it silently and an
        exception propagates to whoever dispatched ``event``."""
        generator = self._generator
        while True:
            try:
                if event._ok:
                    yielded = generator.send(event._value)
                else:
                    event.defused = True
                    yielded = generator.throw(event._exception)
            except StopIteration:
                return
            if not isinstance(yielded, Event):
                raise SimulationError(
                    f"{generator!r} yielded a non-event: {yielded!r}")
            callbacks = yielded.callbacks
            if callbacks is None:
                event = yielded
                continue
            callbacks.append(self._resume)
            return


class Environment:
    """The simulation event loop and clock.

    ``now`` is the current *true* time in integer nanoseconds. Events are
    processed in (time, priority, sequence) order; the sequence number makes
    execution fully deterministic.
    """

    def __init__(self, initial_time: int = 0):
        #: Current simulated true time in nanoseconds. Read-only for
        #: everyone but the kernel.
        self.now = initial_time
        # Calendar queue (see the module docstring).
        self._lane_urgent: list = []
        self._lane_normal: list = []
        self._cursor_urgent = 0
        self._cursor_normal = 0
        self._buckets: dict[int, list] = {}
        self._buckets_urgent: dict[int, list] = {}
        self._armed: dict[int, list] = {}
        self._times: list[int] = []
        self._seq = 0
        # Observability handles (see repro.obs): shared no-op singletons
        # until repro.obs.enable_observability swaps in live ones. None may
        # ever schedule events (tests/test_determinism.py enforces it).
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        self.series = NULL_TIMESERIES
        self.monitor = NULL_MONITOR
        #: Cached ``enabled`` of metrics, tracer and series: hook guards.
        self.metrics_on = False
        self.trace_on = False
        self.series_on = False
        #: Runtime hazard sanitizer (see repro.san). ``None`` unless
        #: installed (``REPRO_SAN=1`` or ``Sanitizer(env).install()``);
        #: hook sites pay one attribute load + None check when off.
        self.san = None
        #: Jepsen-style operation recorder (see repro.check). ``None``
        #: unless installed (``REPRO_HISTORY=1`` or programmatically);
        #: same contract as ``san``: passive, never schedules events.
        self.history = None

    @property
    def events_scheduled(self) -> int:
        """Total queue pushes so far (the benchmark's events metric). An
        armed entry counts when it comes due, and never if withdrawn
        before then."""
        return self._seq

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: typing.Any = None) -> Timeout:
        """An event that fires after ``delay`` nanoseconds."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator, name: str | None = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def serve(self, generator: typing.Generator) -> None:
        """Run ``generator`` as a handler nobody joins: its first step runs
        now, inside the caller, and it then resumes through the callbacks
        of the events it yields, exactly as a :class:`Process` would. No
        ``Process`` or ``Event`` is allocated and nothing is scheduled when
        it returns; its return value is dropped. An exception it raises
        propagates out of the dispatch that resumed it (an unjoined failed
        ``Process`` surfaces from :meth:`run` one entry later).

        Precondition: call it only as the last action of a normal-lane
        entry, such as a handler invoked by ``Network._deliver``. The
        urgent lane is empty while a normal-lane entry runs, so the
        kickoff ``env.process`` would queue is the very next entry, and
        the completion event of a process nobody joins has no callbacks.
        Starting inline and dropping the completion therefore dispatches
        everything else in the same order as ``env.process`` would; only
        ``events_scheduled`` is two lower. Anything joined, interrupted or
        started outside a delivery uses :meth:`process`.
        """
        _Served(generator)._resume(_START)

    def resolve(self, event: Event, ok: bool, value: typing.Any) -> None:
        """Trigger ``event`` as ``succeed(value)`` (``ok``) or
        ``fail(value)`` would; but when that push would be the next entry
        :meth:`run` pops, dispatch the event here instead, exactly as the
        loop does (outcome, callbacks, an undefused failure raised), and
        save the push. An event nobody waits on yet comes back processed:
        a generator that yields it continues inline, as ``_resume`` does
        with any processed event.

        A push is the next entry exactly when the urgent lane is drained
        and the normal cursor is at the end of its lane. Dispatching in
        place is then order-equivalent on one precondition: after
        ``resolve`` returns, the running entry does nothing but hand the
        event to its waiter. Either the call is the entry's last action
        (its callbacks are registered already: ``Network._deliver``
        delivering a reply, ``settle``'s last child landing, a redo batch
        handed to an idle replayer, an ack releasing one commit), or the
        caller yields the event at once and that yield ends the entry (a
        free ``Semaphore`` slot or ``LockTable`` lock, a ``settle`` whose
        children have all landed). A generator resumed as one of several
        callbacks of a shared event does not end its entry when it yields;
        DESIGN.md §4g shows that none of the callers is reached that way.
        """
        if (self._cursor_urgent < len(self._lane_urgent)
                or self._cursor_normal < len(self._lane_normal)):
            # ``not tick_drained()``, inlined: every reply passes here.
            (event.succeed if ok else event.fail)(value)
            return
        if event._ok is not None:
            raise SimulationError(f"{event!r} has already been triggered")
        event._ok = ok
        if ok:
            event._value = value
        else:
            event._exception = value
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not ok and not event.defused:
            raise value

    def tick_drained(self) -> bool:
        """True when nothing is queued behind the running entry for the
        current tick, so a push made now would be the next entry
        :meth:`run` pops: the test :meth:`resolve` makes before it
        dispatches in place."""
        return (self._cursor_urgent >= len(self._lane_urgent)
                and self._cursor_normal >= len(self._lane_normal))

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: int = 0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        normal = priority == PRIORITY_NORMAL
        if delay == 0:
            (self._lane_normal if normal else self._lane_urgent).append(event)
            return
        when = self.now + delay
        buckets, other = ((self._buckets, self._buckets_urgent) if normal
                          else (self._buckets_urgent, self._buckets))
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [event]
            if when not in other:
                heappush(self._times, when)
        else:
            bucket.append(event)

    def defer(self, delay: int, fn, arg) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` ns from now at normal
        priority, without allocating an Event. Consumes one sequence
        number, exactly like scheduling an event would. A call that may be
        taken back is armed instead (:meth:`arm`).
        """
        call = _Call(fn, arg)
        self._seq += 1
        if delay <= 0:
            self._lane_normal.append(call)
            return
        when = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [call]
            if when not in self._buckets_urgent:
                heappush(self._times, when)
        else:
            bucket.append(call)

    def arm(self, delay: int, fn, arg) -> _Call:
        """Like :meth:`defer`, for a guard timer that usually never fires:
        the returned ``_Call`` is the handle :meth:`withdraw` takes.

        The entry waits in the armed ledger, not in its instant's bucket,
        and records as ``slot`` how many normal entries that bucket holds
        now. When the instant comes due, ``_advance`` splices it into the
        normal lane behind exactly those entries, where :meth:`defer`
        would have put it, and only then consumes its sequence number. The
        instant's timestamp is pushed when its armed list is made; if a
        bucket already put it on the heap, the second copy is an empty
        tick.
        """
        call = _Call(fn, arg)
        if delay <= 0:
            self._seq += 1
            call.when = self.now
            self._lane_normal.append(call)
            return call
        call.when = when = self.now + delay
        buckets = self._buckets
        call.slot = len(buckets[when]) if when in buckets else 0
        armed = self._armed
        if when in armed:
            armed[when].append(call)
        else:
            armed[when] = [call]
            heappush(self._times, when)
        return call

    def withdraw(self, call: _Call) -> None:
        """Take back an :meth:`arm`: ``fn`` will not run.

        An entry whose instant has not come due leaves the armed ledger
        and consumes no sequence number (its timestamp stays on the heap,
        an empty tick if nothing else is due then). An entry already
        spliced into the running tick's lane stays where it is and fires
        as a no-op; one that already fired is left alone.
        """
        armed = self._armed.get(call.when)
        if armed is None:
            call.fn = _withdrawn
            call.arg = None
            return
        armed.remove(call)
        if not armed:
            del self._armed[call.when]

    def armed_tail(self, when: int) -> _Call | None:
        """The entry armed last for instant ``when``, if an entry armed for
        ``when`` now would be spliced right behind it: nothing armed after
        it is still live and nothing has been queued for ``when`` since
        (its bucket still holds ``slot`` entries). Else None.

        A caller may then add its work to that entry instead of arming its
        own: the two run in the same order, back to back, and one sequence
        number is saved when the instant comes due. The caller must make
        sure nothing the entry runs first could change what the added work
        does, and must withdraw the entry only when no work is left in it.
        """
        armed = self._armed.get(when)
        if armed is None:
            return None
        call = armed[-1]
        bucket = self._buckets.get(when)
        if call.slot != (0 if bucket is None else len(bucket)):
            return None
        return call

    def _advance(self, when: int) -> None:
        """Move the clock to ``when`` and swap that tick's buckets in as
        the new lanes, splicing its live armed entries into the normal one
        (see :meth:`arm`). A tick with no entries only moves the clock: the
        consumed lanes stay. Only called with lanes fully consumed."""
        self.now = when
        normal = self._buckets.pop(when, None)
        if when in self._armed:
            calls = self._armed.pop(when)
            self._seq += len(calls)
            if normal is None:
                normal = calls  # no bucket was ever made: every slot is 0
            else:
                for offset, call in enumerate(calls):
                    normal.insert(call.slot + offset, call)
        urgent = self._buckets_urgent
        if urgent and when in urgent:
            self._lane_urgent = urgent.pop(when)
            self._lane_normal = normal if normal is not None else []
        elif normal is not None:
            self._lane_urgent = []
            self._lane_normal = normal
        else:
            return  # an empty tick
        self._cursor_urgent = self._cursor_normal = 0

    def peek(self) -> int | None:
        """Time of the next tick (``withdraw`` may have emptied it), or None."""
        if (self._cursor_urgent < len(self._lane_urgent)
                or self._cursor_normal < len(self._lane_normal)):
            return self.now
        return self._times[0] if self._times else None

    def run(self, until: int | Event | None = None) -> typing.Any:
        """Run the simulation.

        - ``until`` is an ``int``: run until simulated time reaches it.
        - ``until`` is an :class:`Event`: run until that event is processed,
          then return its value (raising its exception if it failed).
        - ``until`` is None: run until the event queue drains.

        One loop serves all three with the dispatch inlined: the horizon is
        tested only where the clock advances, the awaited event once per
        entry. The cyclic collector is parked for the call: automatic
        collection is off unless the caller already turned it off, and on
        the way out :func:`_collect_as_scheduled` runs the one collection
        its threshold schedule would have run meanwhile.
        """
        stop = horizon = None
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            if until < self.now:
                raise SimulationError(
                    f"cannot run backwards: now={self.now}, until={until}")
            horizon = until
        parked = gc.isenabled()
        if parked:
            gc.disable()
        try:
            while stop is None or stop.callbacks is not None:
                lane = self._lane_urgent
                index = self._cursor_urgent
                if index < len(lane):
                    self._cursor_urgent = index + 1
                    entry = lane[index]
                else:
                    lane = self._lane_normal
                    index = self._cursor_normal
                    if index < len(lane):
                        self._cursor_normal = index + 1
                        entry = lane[index]
                    else:
                        times = self._times
                        if not times or (horizon is not None
                                         and times[0] > horizon):
                            break
                        self._advance(heappop(times))
                        continue
                if entry.__class__ is _Call:
                    entry.fn(entry.arg)
                    continue
                callbacks = entry.callbacks
                entry.callbacks = None
                for callback in callbacks:
                    callback(entry)
                if entry._ok is False and not entry.defused:
                    raise entry._exception  # type: ignore[misc]
        finally:
            if parked:
                gc.enable()
                _collect_as_scheduled()
        if stop is None:
            if horizon is not None:
                self.now = horizon
            return None
        if stop.callbacks is not None:
            raise SimulationError(
                "event queue drained before the awaited event fired")
        if stop._ok:
            return stop._value
        stop.defused = True
        raise stop._exception  # type: ignore[misc]

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` nanoseconds of simulated time."""
        self.run(until=self.now + duration)

    def any_of(self, events: list[Event]) -> Event:
        """Composite event that fires when any child fires."""
        from repro.sim.events import AnyOf

        return AnyOf(self, events)

    def all_of(self, events: list[Event]) -> Event:
        """Composite event that fires when all children have fired."""
        from repro.sim.events import AllOf

        return AllOf(self, events)
