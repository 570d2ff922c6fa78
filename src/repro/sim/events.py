"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it. Events carry either a success value or a failure exception.
Composite events (:class:`AnyOf`, :class:`AllOf`) fire when any/all of their
children have fired.

Hot-path notes: every class here is ``__slots__``-ed and the trigger paths
(:meth:`Event.succeed`, :meth:`Event.fail`, :class:`Timeout`) push onto the
environment's calendar queue directly instead of going through
:meth:`~repro.sim.core.Environment.schedule`. ``succeed``/``fail`` always
trigger *at the current tick*, so they reduce to a bare list append on the
normal lane; only a delayed :class:`Timeout` touches the future buckets.
Each push consumes exactly one sequence number, same as the generic path,
so event ordering — and therefore every simulated history — is identical
to the un-inlined kernel.
"""

from __future__ import annotations

import typing
from heapq import heappush

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

# Scheduling priorities: lower value runs first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (scheduled on the event queue with a
    value or an exception) -> *processed* (callbacks have run). Processes
    ``yield`` pending or triggered events; yielding a processed event is an
    error because its callbacks have already fired.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[typing.Callable[[Event], None]] | None = []
        self._value: typing.Any = None
        self._exception: BaseException | None = None
        self._ok: bool | None = None
        # Set True once a failure's exception was delivered somewhere, so the
        # environment does not re-raise it as an unhandled failure.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception scheduled."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The success value (or the exception object, for failed events)."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._exception if self._exception is not None else self._value

    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event with a success ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._lane_normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure ``exception``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._exception = exception
        env = self.env
        env._seq += 1
        env._lane_normal.append(self)
        return self

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: typing.Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._ok = True
        self.defused = False
        self.delay = delay
        env._seq += 1
        if delay == 0:
            env._lane_normal.append(self)
        else:
            when = env.now + delay
            buckets = env._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [self]
                if when not in env._buckets_urgent:
                    heappush(env._times, when)
            else:
                bucket.append(self)


class Interrupt(Exception):
    """Thrown into a process when :meth:`~repro.sim.core.Process.interrupt` is
    called on it. ``cause`` describes why (e.g. a node-failure injection)."""

    def __init__(self, cause: typing.Any = None):
        super().__init__(cause)
        self.cause = cause


class ConditionValue:
    """Ordered mapping of child events to values for fired conditions."""

    __slots__ = ("events",)

    def __init__(self, events: list[Event]):
        self.events = events

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def todict(self) -> dict[Event, typing.Any]:
        return {event: event.value for event in self.events}


class Condition(Event):
    """Base for composite events over a list of child events.

    Fires with a :class:`ConditionValue` of the children that had fired by
    the time the condition was satisfied. If any child fails before the
    condition is satisfied, the condition fails with that child's exception.
    """

    __slots__ = ("events", "_evaluate", "_count")

    def __init__(self, env: "Environment", events: list[Event],
                 evaluate: typing.Callable[[int, int], bool]):
        super().__init__(env)
        self.events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events or self._evaluate(len(self.events), 0):
            self.succeed(ConditionValue([]))
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                # The condition already fired; don't let the late failure
                # escape as an unhandled event failure.
                event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._count += 1
        if self._evaluate(len(self.events), self._count):
            fired = [child for child in self.events if child.processed and child.ok]
            self.succeed(ConditionValue(fired))


def settle(env: "Environment", events: list[Event]) -> Event:
    """An event that fires once every child has fired, success *or* failure.

    Unlike :class:`AllOf`, child failures do not propagate — they are
    defused and the caller inspects each child's ``ok``/``value`` after the
    settle event fires. Used for fan-out RPCs where stragglers or timeouts
    must not abort the round.
    """
    outcome = Event(env)
    remaining = len(events)
    if remaining == 0:
        outcome.succeed([])
        return outcome

    def on_child(child: Event) -> None:
        nonlocal remaining
        child.defused = True
        remaining -= 1
        if remaining == 0:
            outcome.succeed(events)

    for child in events:
        if child.processed:
            on_child(child)
        else:
            child.add_callback(on_child)
    return outcome


class AnyOf(Condition):
    """Fires as soon as one child event fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: list[Event]):
        super().__init__(env, events, lambda total, done: done > 0)


class AllOf(Condition):
    """Fires once every child event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: list[Event]):
        super().__init__(env, events, lambda total, done: done == total)
