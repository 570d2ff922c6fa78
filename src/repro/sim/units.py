"""Time-unit helpers.

Simulation time is an ``int`` count of nanoseconds of *true* time since the
start of the simulation. Integer time keeps event ordering exact (no
floating-point ties) and lets GTM counters and GClock epoch timestamps share
one comparable integer space, which the DUAL-mode migration protocol relies
on.
"""

from __future__ import annotations

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000
MINUTE = 60 * SECOND


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * MICROSECOND)


def ms(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * MILLISECOND)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * SECOND)


def ns_to_ms(value: int) -> float:
    """Convert integer nanoseconds to float milliseconds (for reporting only)."""
    return value / MILLISECOND
