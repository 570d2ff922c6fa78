"""Metric instruments: counters, gauges, and fixed-bucket histograms.

All instruments are *sim-time-native*: they never consult wall clocks and
never schedule simulation events, so enabling metrics cannot perturb a
deterministic run. Gauge update times come from the owning
:class:`~repro.sim.core.Environment`'s ``now`` when a registry is bound to
one.

Two registries exist:

- :class:`MetricsRegistry` — the real thing: instruments are created on
  first use, cached by ``(kind, name, labels)``, and appear in
  :meth:`~MetricsRegistry.snapshot`.
- :class:`NullRegistry` — the default on every ``Environment``: every
  lookup returns a shared no-op instrument, so instrumented hot paths cost
  one attribute check (``registry.enabled``) when observability is off.

Instruments are also usable standalone (``Counter()``, ``Histogram()``)
for stats objects that must keep counting even when the global registry is
disabled — see :class:`repro.txn.provider.TimestampStats`.
"""

from __future__ import annotations

import typing

#: Default latency buckets: 1 us .. 10 s in a 1-2-5 progression, in ns.
LATENCY_BUCKETS_NS: tuple[int, ...] = tuple(
    base * scale
    for scale in (1_000, 1_000_000, 1_000_000_000)
    for base in (1, 2, 5, 10, 20, 50, 100, 200, 500)
    if base * scale <= 10_000_000_000
)

#: Default size buckets (records, bytes): 1 .. 1M in powers of four.
SIZE_BUCKETS: tuple[int, ...] = tuple(4 ** exp for exp in range(11))


class Counter:
    """A monotonically increasing count (messages, round trips, bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (backlog depth, replica lag, RCP)."""

    __slots__ = ("value", "updated_at", "max_value")

    def __init__(self) -> None:
        self.value = 0
        self.updated_at = 0
        self.max_value = 0

    def set(self, value, now: int = 0) -> None:
        self.value = value
        self.updated_at = now
        if value > self.max_value:
            self.max_value = value


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    ``buckets`` are inclusive upper bounds; values above the last bound
    land in a +Inf overflow bucket. Percentiles are estimated by linear
    interpolation within the containing bucket (clamped to the observed
    min/max so tiny samples do not report absurd bounds).
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: typing.Sequence[int] = LATENCY_BUCKETS_NS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1: overflow
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    def record(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value) -> int:
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimated value at percentile ``pct`` (0-100)."""
        if not self.count:
            return 0.0
        target = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = self.buckets[index - 1] if index > 0 else 0
                upper = (self.buckets[index] if index < len(self.buckets)
                         else (self.max or lower))
                fraction = ((target - previous) / bucket_count
                            if bucket_count else 0.0)
                estimate = lower + (upper - lower) * fraction
                low = self.min if self.min is not None else estimate
                high = self.max if self.max is not None else estimate
                return min(max(estimate, low), high)
        return float(self.max or 0)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` pairs; the final bound is +Inf."""
        bounds = list(self.buckets) + [float("inf")]
        return list(zip(bounds, self.counts))


class MetricsRegistry:
    """Creates, caches, and snapshots instruments.

    Instruments are identified by ``(name, labels)``; asking twice returns
    the same object. ``labels`` keep cardinality sane: use node/link/op
    names, never per-transaction values.
    """

    enabled = True

    def __init__(self, env=None):
        self.env = env
        self._instruments: dict[tuple, typing.Any] = {}

    def _now(self) -> int:
        return self.env.now if self.env is not None else 0

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict, factory):
        key = (kind, name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: typing.Sequence[int] = LATENCY_BUCKETS_NS,
                  **labels) -> Histogram:
        return self._get("hist", name, labels, lambda: Histogram(buckets))

    def set_gauge(self, name: str, value, **labels) -> None:
        """Convenience: set a gauge stamped with the current sim time."""
        self.gauge(name, **labels).set(value, self._now())

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """Every instrument's current state, JSON-serializable."""
        rows = []
        for (kind, name, labels), instrument in sorted(
                self._instruments.items(), key=lambda item: item[0][:2]):
            row: dict[str, typing.Any] = {
                "name": name, "type": kind, "labels": dict(labels)}
            if kind == "counter":
                row["value"] = instrument.value
            elif kind == "gauge":
                row["value"] = instrument.value
                row["max"] = instrument.max_value
                row["updated_at"] = instrument.updated_at
            else:
                row.update(count=instrument.count, sum=instrument.sum,
                           min=instrument.min, max=instrument.max,
                           mean=instrument.mean,
                           p50=instrument.percentile(50),
                           p95=instrument.percentile(95),
                           p99=instrument.percentile(99))
            rows.append(row)
        return rows


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def record(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The default ``env.metrics``: everything is a shared no-op.

    Hot paths should guard label construction with ``registry.enabled``;
    unguarded calls still work, they just do nothing.
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def set_gauge(self, name: str, value, **labels) -> None:
        pass

    def snapshot(self) -> list:
        return []


#: Shared default registry: one instance is enough, it holds no state.
NULL_REGISTRY = NullRegistry()
