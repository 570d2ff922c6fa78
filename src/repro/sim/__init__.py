"""Deterministic discrete-event simulation substrate.

The whole database cluster runs inside this simulator: nodes are generator
processes, network latency is simulated time, and clocks drift relative to
simulated *true* time. The public surface is:

- :class:`~repro.sim.core.Environment` — the event loop.
- :class:`~repro.sim.events.Event`, :func:`~repro.sim.core.Environment.timeout`
  and friends — what processes ``yield``.
- :mod:`repro.sim.units` — nanosecond time-unit helpers.
- :mod:`repro.sim.network` / :mod:`repro.sim.transport` — message-passing
  links with latency, bandwidth, compression and congestion modelling.
- :mod:`repro.sim.rand` — seeded per-purpose random streams.
"""

from repro.sim.core import Environment, Process
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND, ms, seconds, us

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "ms",
    "us",
    "seconds",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
]
