"""A node's local hardware clock, which drifts relative to true time.

The clock's reading is ``true_time + offset`` where the offset evolves at a
drift rate bounded by ``max_drift_ppm`` (the paper bounds CPU clock drift at
200 PPM). The sync daemon periodically re-anchors the offset to within the
sync error of zero; between syncs the offset wanders at the current drift
rate. Each anchor sets a new drift rate so long runs exercise both fast
and slow clocks; the constructor's RNG draws only the first one.
"""

from __future__ import annotations

import random

from repro.sim.core import Environment


class PhysicalClock:
    """A drifting local clock.

    Reading the clock is ``O(1)`` and event-free: the value is derived from
    the last anchor point plus drift-scaled elapsed true time. Only the sync
    daemon may move the anchor.
    """

    def __init__(self, env: Environment, name: str, rng: random.Random,
                 max_drift_ppm: float = 200.0, initial_offset_ns: int = 0):
        self.env = env
        self.name = name
        self.max_drift_ppm = max_drift_ppm
        self._anchor_true = env.now
        self._anchor_value = env.now + initial_offset_ns
        self._drift_ppm = rng.uniform(-max_drift_ppm, max_drift_ppm)

    @property
    def drift_ppm(self) -> float:
        """The current drift rate in parts per million."""
        return self._drift_ppm

    def read(self) -> int:
        """The clock's current reading, in nanoseconds."""
        elapsed = self.env.now - self._anchor_true
        return self._anchor_value + elapsed + round(elapsed * self._drift_ppm * 1e-6)

    def offset_ns(self) -> int:
        """Current deviation from true time (only tests should call this —
        real node code cannot observe its own offset)."""
        return self.read() - self.env.now

    def anchor(self, value_ns: int, at_ns: int, drift_ppm: float) -> None:
        """Re-anchor the clock: it read ``value_ns`` at true time ``at_ns``
        and runs at ``drift_ppm`` from there (called by the sync daemon)."""
        self._anchor_true = at_ns
        self._anchor_value = value_ns
        self._drift_ppm = drift_ppm

    def step(self, delta_ns: int) -> None:
        """Shift the clock by ``delta_ns`` (fault injection: a clock jump)."""
        stepped_value = self.read() + delta_ns
        self._anchor_true = self.env.now
        self._anchor_value = stepped_value
