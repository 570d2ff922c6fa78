"""Clock synchronization daemon.

Each machine syncs its :class:`~repro.clocks.physical.PhysicalClock` against
its region's :class:`~repro.clocks.time_device.GlobalTimeDevice` every
``period_ns`` (paper: 1 ms) over a ``rtt_ns`` round trip (paper: 60 us).
The resulting error bound follows Eq. (1):

    T_err = T_sync + T_drift

with ``T_sync`` the sync round trip and ``T_drift`` the worst-case drift
accumulated since the last successful sync.

Two execution modes:

- **analytic** (default): no simulation events are scheduled. Syncs are
  applied lazily at period boundaries whenever the daemon is consulted.
  This keeps long benchmark runs cheap (a 1 ms sync loop per node would
  otherwise dominate the event queue) while producing the same bound.
- **event-driven**: a real process loop performs each sync after an RTT
  delay. Tests use it to validate that the analytic mode's error bound is
  a faithful stand-in.

If the time device fails, syncs stop succeeding and the error bound grows
linearly with drift. How large a bound is too large, the trigger for a
GClock-to-GTM fallback (§III-A, Fig. 3), is the operator's call: the
daemon reports the bound, not a verdict.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.clocks.physical import PhysicalClock
from repro.clocks.time_device import GlobalTimeDevice
from repro.sim.core import Environment
from repro.sim.units import ms, us


@dataclass(frozen=True)
class ClockSyncConfig:
    """Sync parameters (defaults are the paper's)."""

    period_ns: int = ms(1)
    rtt_ns: int = us(60)
    analytic: bool = True


class ClockSyncDaemon:
    """Keeps one node's clock anchored to the regional time device."""

    def __init__(self, env: Environment, clock: PhysicalClock,
                 device: GlobalTimeDevice, config: ClockSyncConfig | None = None,
                 name: str | None = None):
        self.env = env
        self.clock = clock
        self.device = device
        self.config = config or ClockSyncConfig()
        self.name = name or clock.name
        # Deterministic per-node phase so nodes don't all sync in lockstep.
        self._phase = self._stable_hash("phase") % self.config.period_ns
        self.last_sync_true_time: int = env.now
        self.sync_count = 0
        self.failed_syncs = 0
        self._process = None
        if self.config.analytic:
            self._lazy_sync()

    # ------------------------------------------------------------------
    # Event-driven mode
    # ------------------------------------------------------------------
    def start(self):
        """Spawn the event-driven sync loop (no-op in analytic mode)."""
        if self.config.analytic or self._process is not None:
            return None
        self._process = self.env.process(self._run(), name=f"clocksync:{self.name}")
        return self._process

    def _run(self):
        while True:
            yield self.env.timeout(self.config.period_ns)
            # The round trip to the rack-local time device.
            yield self.env.timeout(self.config.rtt_ns)
            self._apply_sync(boundary=self.env.now)

    # ------------------------------------------------------------------
    # Analytic mode
    # ------------------------------------------------------------------
    def _stable_hash(self, salt: str, index: int = 0) -> int:
        digest = hashlib.sha256(f"{self.name}:{salt}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def _lazy_sync(self) -> None:
        """Apply the most recent period-boundary sync if one is due."""
        now = self.env.now
        if now - self.last_sync_true_time < self.config.period_ns:
            return
        boundary = now - ((now - self._phase) % self.config.period_ns)
        if boundary <= self.last_sync_true_time:
            return
        self._apply_sync(boundary=boundary)

    def _apply_sync(self, boundary: int) -> None:
        """Anchor the clock as of a sync completed at true time ``boundary``.

        The anchor's offset and its new drift rate are both derived from
        the boundary's index, so the clock's reading at any instant
        depends only on the latest boundary before it, not on how often,
        or whether, anyone read the clock in between."""
        if self.device.failed:
            self.failed_syncs += 1
            return
        index = boundary // max(1, self.config.period_ns)
        residual_span = max(1, self.config.rtt_ns // 2 + self.device.accuracy_ns)
        residual = self._stable_hash("residual", index) % (2 * residual_span) - residual_span
        drift_ppm = (self._stable_hash("drift", index) / 2**63 - 1) * self.clock.max_drift_ppm
        self.clock.anchor(boundary + residual, at_ns=boundary,
                          drift_ppm=drift_ppm)
        self.last_sync_true_time = boundary
        self.sync_count += 1
        self.device.queries += 1

    # ------------------------------------------------------------------
    # Error bound (Eq. 1)
    # ------------------------------------------------------------------
    def error_bound_ns(self) -> int:
        """Current ``T_err = T_sync + T_drift``."""
        if self.config.analytic:
            self._lazy_sync()
        t_sync = self.config.rtt_ns
        age = self.env.now - self.last_sync_true_time
        t_drift = round(age * self.clock.max_drift_ppm * 1e-6)
        return t_sync + t_drift
