"""The GClock timestamp source (§III).

A GClock timestamp is ``TS = T_clock + T_err`` (Eq. 1): the node's clock
reading plus the current error bound, i.e. an upper bound on true time. The
transaction protocol then *commit-waits*: it holds the transaction until the
local clock has passed ``TS``, which guarantees that any transaction that
starts afterwards — anywhere in the cluster, by true time — obtains a larger
timestamp. This yields the paper's visibility requirements R.1 and R.2
(external serializability), exactly as in Spanner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.physical import PhysicalClock
from repro.clocks.sync import ClockSyncDaemon
from repro.sim.core import Environment


@dataclass(frozen=True, order=True)
class GClockTimestamp:
    """A GClock timestamp: the assigned value plus the bound it embeds."""

    ts: int
    err: int


class GClockSource:
    """Per-node timestamp oracle backed by a synced physical clock."""

    def __init__(self, env: Environment, clock: PhysicalClock, sync: ClockSyncDaemon):
        self.env = env
        self.clock = clock
        self.sync = sync

    def read(self) -> int:
        """The node clock's current reading (after any lazy sync)."""
        if self.sync.config.analytic:
            self.sync._lazy_sync()
        return self.clock.read()

    def timestamp(self) -> GClockTimestamp:
        """Take a timestamp per Eq. (1): ``T_clock + T_err``."""
        err = self.sync.error_bound_ns()
        return GClockTimestamp(ts=self.read() + err, err=err)

    def bounds(self) -> tuple[int, int]:
        """TrueTime-style interval (earliest, latest) containing true time."""
        err = self.sync.error_bound_ns()
        reading = self.read()
        return reading - err, reading + err

    def wait_until_after(self, ts: int):
        """Generator: suspend until true time has provably passed ``ts``.

        This is the invocation/commit wait primitive. The condition is the
        TrueTime ``after`` predicate: the clock's *earliest* bound
        (``reading - err``) must exceed ``ts``. Waiting merely for the raw
        reading to pass ``ts`` would leave an err-sized window in which a
        fast clock's transaction commits "in the future" and a slow clock's
        later transaction still obtains a smaller timestamp, violating R.1.
        The sleep is computed with a drift safety margin and re-checked.
        """
        margin = 1 + self.clock.max_drift_ppm * 1e-6
        while True:
            earliest = self.read() - self.sync.error_bound_ns()
            if earliest > ts:
                return earliest
            needed = ts - earliest + 1
            yield self.env.timeout(max(1, round(needed * margin)))
