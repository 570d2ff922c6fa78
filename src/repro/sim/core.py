"""The discrete-event simulation kernel.

:class:`Environment` owns the event queue and the simulated clock (integer
nanoseconds of *true* time). :class:`Process` drives a Python generator:
each ``yield``-ed :class:`~repro.sim.events.Event` suspends the process until
the event fires, at which point the event's value is sent back into the
generator (or its exception thrown). :meth:`Environment.serve` drives a
generator nobody joins the same way without the process: it starts inside
the caller and schedules nothing when it returns.

The kernel is deterministic: ties at equal timestamps are broken by a
monotonically increasing sequence number, so two runs with the same seeds
produce identical histories.

Scheduler design (``benchmarks/perf`` measures this):

The queue is a three-level calendar structure instead of a single binary
heap. The invariant it preserves is the heap kernel's total order —
``(when, priority, seq)`` ascending — without materializing the tuples:

- **Level 0 — current-tick lanes.** Anything scheduled at ``now`` (the
  overwhelmingly common case: ``succeed``/``fail``, message handlers,
  process spawns) is a bare append to one of two FIFO lists, one per
  priority. Appends cost no tuple, no comparison, no sift. FIFO order
  *is* sequence order because ``_seq`` increases monotonically, and the
  urgent lane is always drained before the normal lane resumes, which is
  exactly what the priority field used to buy.
- **Level 1 — per-timestamp buckets.** Future work goes into
  ``dict[when -> list]`` buckets (a rare second dict for future urgent
  entries). Insertion is a dict probe + append; order within a bucket is
  again sequence order.
- **Level 2 — timestamp heap.** A plain int min-heap of *distinct* future
  timestamps. Each timestamp enters it exactly once (pushes are guarded
  by bucket creation), so it is a fraction of the size of the old event
  heap and its comparisons are int-vs-int, not tuple-vs-tuple.

Advancing the clock pops the smallest timestamp and swaps its buckets in
as the new lanes. Because time only moves forward and same-time work goes
straight to the lanes, a timestamp can never be scheduled again after its
tick ran — no stale-entry pruning is needed. A timestamp whose bucket
:meth:`Environment.withdraw` emptied stays on the heap (and is pushed again
if reused); ``_advance`` runs a timestamp without a bucket as an empty tick.

Other hot-path notes:

- ``now`` is a plain attribute, not a property — it is read on nearly every
  instruction of simulation code. Only the kernel writes it.
- ``_seq`` is a plain int; every push increments it exactly once, so the
  inlined pushes in ``repro.sim.events`` keep the same total order the
  un-inlined kernel produced (``events_scheduled`` still reports it).
- :meth:`Environment.defer` schedules a bare ``fn(arg)`` call without
  allocating an :class:`Event`, a callbacks list, or a closure — the
  network's delivery path uses it for every message.
  :meth:`Environment.withdraw` takes an unfired one back, so a deadline
  ends with its request.
- :meth:`Environment.serve` runs a message handler's generator without a
  :class:`Process`: no urgent-lane kickoff, no completion event. Called as
  the last action of a normal-lane delivery (its precondition), it is
  order-equivalent to ``env.process``; a data node serves every request
  this way, two queue entries fewer each.
- Nothing is recycled: queue entries, messages and timers are allocated
  fresh and left to reference counting, so no handle can come to name
  somebody else's work.
- The ``run`` loops inline the dispatch (no per-event call).
- ``metrics_on`` / ``trace_on`` / ``series_on`` cache the observability
  toggles, so a disabled hook site costs one attribute test.
"""

from __future__ import annotations

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
    callback; nothing can wait on one. ``when`` is the tick ``defer``
    queued it for, which is where ``withdraw`` looks for it."""

    __slots__ = ("fn", "arg", "when")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg


class _StartSignal:
    """Shared do-nothing "event" delivered to a generator's first resume.

    ``Process._resume`` and ``_Served._resume`` only read ``_ok``/``_value``
    on the success path, so one immutable instance serves every kickoff."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _StartSignal()


def _withdrawn(_arg) -> None:
    """What a withdrawn entry already in the current tick's lanes runs."""


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
        # Calendar queue (see module docstring): current-tick lanes with
        # read cursors, per-timestamp future buckets, and a min-heap of
        # distinct future timestamps.
        self._lane_urgent: list = []
        self._lane_normal: list = []
        self._cursor_urgent = 0
        self._cursor_normal = 0
        self._buckets: dict[int, list] = {}
        self._buckets_urgent: dict[int, list] = {}
        self._times: list[int] = []
        self._seq = 0
        # Observability handles (see repro.obs). The defaults are shared
        # no-op singletons, so instrumentation costs one attribute check
        # when disabled; repro.obs.enable_observability swaps in live ones.
        # Neither may ever schedule events — that is the determinism
        # contract tests/test_determinism.py enforces.
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_TRACER
        self.series = NULL_TIMESERIES
        self.monitor = NULL_MONITOR
        #: Cached ``metrics.enabled`` / ``tracer.enabled`` /
        #: ``series.enabled`` — single-load guards for per-event
        #: instrumentation.
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
        """Total queue pushes so far (the benchmark's events metric)."""
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

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: int = 0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        if delay == 0:
            if priority == PRIORITY_NORMAL:
                self._lane_normal.append(event)
            else:
                self._lane_urgent.append(event)
            return
        when = self.now + delay
        if priority == PRIORITY_NORMAL:
            buckets = self._buckets
            other = self._buckets_urgent
        else:
            buckets = self._buckets_urgent
            other = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [event]
            if when not in other:
                heappush(self._times, when)
        else:
            bucket.append(event)

    def defer(self, delay: int, fn, arg) -> _Call:
        """Schedule ``fn(arg)`` to run ``delay`` ns from now at normal
        priority, without allocating an Event. Consumes one sequence
        number, exactly like scheduling an event would. The returned
        ``_Call`` is the handle :meth:`withdraw` takes.
        """
        call = _Call(fn, arg)
        self._seq += 1
        if delay <= 0:
            call.when = self.now
            self._lane_normal.append(call)
            return call
        call.when = when = self.now + delay
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [call]
            if when not in self._buckets_urgent:
                heappush(self._times, when)
        else:
            bucket.append(call)
        return call

    def withdraw(self, call: _Call) -> None:
        """Take back a :meth:`defer`: ``fn`` will not run.

        A future entry leaves its bucket (an emptied bucket is deleted;
        its timestamp stays on the heap as an empty tick). An entry whose
        tick is already in the lanes stays where it is and fires as a
        no-op; one that already fired is left alone. No sequence number is
        consumed or returned.
        """
        bucket = self._buckets.get(call.when)
        if bucket is None:
            call.fn = _withdrawn
            call.arg = None
            return
        bucket.remove(call)
        if not bucket:
            del self._buckets[call.when]

    def _advance(self, when: int) -> None:
        """Move the clock to ``when`` and swap that tick's buckets in as
        the new lanes. Only called with lanes fully consumed."""
        self.now = when
        bucket = self._buckets_urgent.pop(when, None) if self._buckets_urgent else None
        if bucket is not None:
            self._lane_urgent = bucket
        else:
            lane = self._lane_urgent
            if lane:
                del lane[:]
        bucket = self._buckets.pop(when, None)
        if bucket is not None:
            self._lane_normal = bucket
        else:
            lane = self._lane_normal
            if lane:
                del lane[:]
        self._cursor_urgent = 0
        self._cursor_normal = 0

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

        The dispatch loops are inlined copies of :meth:`step` — the per-event
        function call is measurable at the scales the bench harness runs.
        """
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:
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
                        if not times:
                            raise SimulationError(
                                "event queue drained before the awaited event fired")
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
            if stop._ok:
                return stop._value
            stop.defused = True
            raise stop._exception  # type: ignore[misc]

        if until is not None:
            if until < self.now:
                raise SimulationError(
                    f"cannot run backwards: now={self.now}, until={until}")
            while True:
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
                        if not times or times[0] > until:
                            self.now = until
                            return None
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

        while True:
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
                    if not times:
                        return None
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
