"""Windowed sim-time series: the sampling layer of the telemetry pipeline.

A :class:`TimeSeriesStore` folds instrumentation samples into fixed-width
windows of *simulated* time. Window ``k`` covers
``[k * window_ns, (k + 1) * window_ns)``; a sample recorded at sim time
``t`` lands in window ``t // window_ns``, so an event exactly on a window
boundary belongs to the *later* window (half-open intervals, no
double-counting).

Like the rest of ``repro.obs``, the store is passive: it never schedules
simulation events and never reads wall clocks. There is no sampler
process — windows *seal lazily*: whenever a sample lands in a later window
than any seen before, every window in between is sealed in order and the
registered listeners (the monitor engine) are invoked per sealed window.
Because samples arrive in deterministic simulation order, sealing — and
therefore every alert a monitor emits — is deterministic too.

Memory is bounded by a ring: each series keeps at most ``capacity``
windows; older windows are evicted as the frontier advances, and samples
aimed below the ring (possible only for out-of-order ``record_at`` calls,
since sim time is monotonic) are counted in ``dropped`` instead of stored.

Series kinds:

- **gauge** — per window: last/min/max sampled value and the sample count
  (replica lag, RCP, staleness, skyline size);
- **counter** — per window: the sum of increments, i.e. the window delta
  (commits, aborts, shipped bytes, failover phase marks).
"""

from __future__ import annotations

import typing

#: Default window width: 50 simulated milliseconds.
DEFAULT_WINDOW_NS = 50_000_000

#: Default ring capacity (windows kept per series).
DEFAULT_CAPACITY = 256

GAUGE = "gauge"
COUNTER = "counter"


class Window:
    """Aggregates of one series over one window."""

    __slots__ = ("index", "last", "min", "max", "count")

    def __init__(self, index: int, value) -> None:
        self.index = index
        self.last = value
        self.min = value
        self.max = value
        self.count = 1

    def add_gauge(self, value) -> None:
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1

    def add_delta(self, amount) -> None:
        self.last += amount
        self.count += 1

    def to_list(self) -> list:
        """Compact JSON form: ``[index, last, min, max, count]``."""
        return [self.index, self.last, self.min, self.max, self.count]


class Series:
    """One named, labelled stream of windowed aggregates."""

    __slots__ = ("name", "labels", "kind", "windows", "last_window", "dropped")

    def __init__(self, name: str, labels: tuple, kind: str):
        self.name = name
        self.labels = labels  # tuple of sorted (key, value) pairs
        self.kind = kind
        self.windows: dict[int, Window] = {}
        self.last_window = -1  # newest window this series has data in
        self.dropped = 0

    def record(self, window: int, value, floor: int) -> None:
        """Fold ``value`` into ``window``; evict below ``floor``."""
        if window < floor:
            self.dropped += 1
            return
        existing = self.windows.get(window)
        if existing is None:
            self.windows[window] = Window(window, value)
            if window > self.last_window:
                self.last_window = window
                if len(self.windows) > 1:
                    for index in [i for i in self.windows if i < floor]:
                        del self.windows[index]
        elif self.kind == COUNTER:
            existing.add_delta(value)
        else:
            existing.add_gauge(value)

    # ------------------------------------------------------------------
    def window(self, index: int) -> Window | None:
        return self.windows.get(index)

    def value_in(self, index: int):
        """The window's headline value: last (gauge) / delta sum (counter).
        ``None`` when the series has no data in that window."""
        window = self.windows.get(index)
        return None if window is None else window.last

    def nonempty_windows(self) -> list[int]:
        return sorted(self.windows)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "kind": self.kind,
            "dropped": self.dropped,
            "windows": [self.windows[i].to_list()
                        for i in sorted(self.windows)],
        }


class TimeSeriesStore:
    """Sim-clock-driven windowed sampler (see module docstring)."""

    enabled = True

    def __init__(self, env, window_ns: int = DEFAULT_WINDOW_NS,
                 capacity: int = DEFAULT_CAPACITY):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.env = env
        self.window_ns = window_ns
        self.capacity = capacity
        self._series: dict[tuple, Series] = {}
        #: Newest window any sample has landed in; every window strictly
        #: below it is sealed.
        self.frontier = 0
        self._listeners: list[typing.Callable[[int, "TimeSeriesStore"], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def window_bounds(self, index: int) -> tuple[int, int]:
        return index * self.window_ns, (index + 1) * self.window_ns

    def _get(self, name: str, labels: dict, kind: str) -> Series:
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(name, key[1], kind)
        return series

    def gauge(self, name: str, value, **labels) -> None:
        """Record a gauge sample at the current sim time."""
        self.record_at(self.env.now, name, value, GAUGE, labels)

    def counter(self, name: str, amount=1, **labels) -> None:
        """Add to a counter series in the current window."""
        self.record_at(self.env.now, name, amount, COUNTER, labels)

    def record_at(self, at_ns: int, name: str, value, kind: str,
                  labels: dict) -> None:
        """Fold one sample at an explicit sim time (unit tests drive this
        directly; live instrumentation goes through gauge/counter/mark)."""
        window = at_ns // self.window_ns
        if window > self.frontier:
            self._advance(window)
        series = self._get(name, labels, kind)
        series.record(window, value, self.frontier - self.capacity + 1)

    def _advance(self, window: int) -> None:
        """Seal every window in ``[frontier, window)`` in order."""
        listeners = self._listeners
        for sealed in range(self.frontier, window):
            self.frontier = sealed + 1
            for listener in listeners:
                listener(sealed, self)

    def catch_up(self) -> None:
        """Seal every window that has fully elapsed at the current sim
        time (call after a run quiesces so trailing windows are evaluated
        by the monitors even though no later sample arrived)."""
        self._advance(self.env.now // self.window_ns)

    def add_listener(self, listener) -> None:
        """Register ``listener(sealed_window_index, store)``; called once
        per sealed window, in window order."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def series(self, name: str, **labels) -> Series | None:
        return self._series.get((name, tuple(sorted(labels.items()))))

    def series_named(self, name: str) -> list[Series]:
        """Every labelled series with ``name``, in stable (label) order."""
        return [series for key, series in sorted(self._series.items())
                if key[0] == name]

    def all_series(self) -> list[Series]:
        return [series for _key, series in sorted(self._series.items())]

    @property
    def dropped(self) -> int:
        return sum(series.dropped for series in self._series.values())

    def snapshot(self) -> dict:
        """JSON-serializable dump of every series (sorted, so the dump —
        and anything hashed from it — is independent of insertion order)."""
        return {
            "window_ns": self.window_ns,
            "capacity": self.capacity,
            "frontier": self.frontier,
            "dropped": self.dropped,
            "series": [series.to_dict() for series in self.all_series()],
        }


class NullTimeSeries:
    """The default ``env.series``: every call is a no-op."""

    enabled = False
    window_ns = DEFAULT_WINDOW_NS
    frontier = 0
    dropped = 0


#: Shared default store (stateless, so one instance serves everyone).
NULL_TIMESERIES = NullTimeSeries()
