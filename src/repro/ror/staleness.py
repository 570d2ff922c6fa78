"""Replica staleness estimation (§IV-B).

Staleness is "how far behind the present is this replica's applied state",
in nanoseconds. The estimator depends on the timestamp regime:

- **GClock mode**: commit timestamps *are* (bounded) physical time, so
  staleness is simply ``now - max_commit_ts`` measured against the local
  clock's upper bound (never negative).
- **GTM mode**: commit timestamps are counter values, so physical lag must
  be extrapolated: the gap between the freshest known timestamp and the
  replica's applied timestamp, divided by the observed timestamp issue rate
  over the last interval.
"""

from __future__ import annotations

from repro.clocks.gclock import GClockSource
from repro.sim.core import Environment
from repro.sim.units import SECOND
from repro.txn.modes import TxnMode


class StalenessEstimator:
    """Per-CN estimator fed by the status answers of the CN's probe round."""

    def __init__(self, env: Environment, gclock: GClockSource,
                 name: str = ""):
        self.env = env
        self.gclock = gclock
        self.name = name  # owning CN, used to label emitted metrics
        # GTM-mode rate tracking: (sim time, freshest counter) samples.
        self._last_sample_time: int | None = None
        self._last_sample_ts = 0
        self._rate_per_second = 0.0  # timestamps issued per second

    def observe_frontier(self, freshest_ts: int) -> None:
        """Feed the freshest timestamp the CN knows about (e.g. the max of
        primary last-commit timestamps) to track the GTM issue rate."""
        now = self.env.now
        if self._last_sample_time is not None:
            elapsed = now - self._last_sample_time
            if elapsed > 0 and freshest_ts >= self._last_sample_ts:
                rate = (freshest_ts - self._last_sample_ts) / elapsed * SECOND
                # EWMA to smooth bursty intervals.
                if self._rate_per_second:
                    self._rate_per_second = 0.5 * self._rate_per_second + 0.5 * rate
                else:
                    self._rate_per_second = rate
        self._last_sample_time = now
        self._last_sample_ts = max(self._last_sample_ts, freshest_ts)
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.set_gauge("ror.frontier_ts", self._last_sample_ts,
                              node=self.name)
        if self.env.series_on:
            self.env.series.gauge("ror.frontier_ts", self._last_sample_ts,
                                  node=self.name)

    @property
    def rate_per_second(self) -> float:
        return self._rate_per_second

    def estimate_ns(self, mode: TxnMode, replica_max_commit_ts: int) -> int:
        """Estimated staleness of a replica whose applied frontier is
        ``replica_max_commit_ts``."""
        if mode is TxnMode.GCLOCK:
            _earliest, latest = self.gclock.bounds()
            return max(0, latest - replica_max_commit_ts)
        # GTM / DUAL: extrapolate from the counter gap and issue rate.
        gap = max(0, self._last_sample_ts - replica_max_commit_ts)
        if gap == 0:
            return 0
        if self._rate_per_second <= 0:
            # No rate observed yet: fall back to "one interval behind".
            if self._last_sample_time is None:
                return 0
            return max(0, self.env.now - self._last_sample_time)
        return round(gap / self._rate_per_second * SECOND)
