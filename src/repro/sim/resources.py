"""Shared-capacity resources for the simulation.

:class:`Semaphore` models a bounded worker pool (e.g. a data node's
executor threads): up to ``capacity`` holders at once, FIFO queueing beyond
that. Used to give nodes a realistic saturation point so closed-loop
workloads exhibit proper throughput ceilings.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.events import Event


class Semaphore:
    """A counting semaphore with FIFO fairness."""

    __slots__ = ("env", "capacity", "in_use", "_waiters", "peak_queue")

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()
        self.peak_queue = 0

    def acquire(self) -> Event:
        """Event that fires when a slot is held.

        A free slot is granted at once through ``Environment.resolve``, so
        the returned event may already be processed: yield it at once, as
        the last action of the running entry, and never ``add_callback``
        to it."""
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            self.env.resolve(event, True, True)
        else:
            self._waiters.append(event)
            self.peak_queue = max(self.peak_queue, len(self._waiters))
        return event

    def release(self) -> None:
        """Release a slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            event = self._waiters.popleft()
            event.succeed(True)
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def load(self) -> float:
        """Utilization plus queueing pressure (for load metrics)."""
        return (self.in_use + len(self._waiters)) / self.capacity
