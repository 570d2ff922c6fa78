"""Online SLO / invariant monitors over the windowed time-series.

A :class:`MonitorEngine` registers as a listener on a
:class:`~repro.obs.timeseries.TimeSeriesStore` and evaluates its declarative
:class:`Rule` set at every window seal — *inside* the simulation, at
deterministic points, on deterministic data. A rule that trips emits a
structured :class:`Alert` (appended to ``engine.alerts`` and, when tracing
is live, recorded as an ``alert`` span on the ``monitor`` track), so tests
can assert "the staleness bound was violated in window 37 on dn0r1" and a
CI gate can fail a run on any ``severity=error`` alert.

Rule kinds:

``above``        a series' window value exceeds ``threshold`` for
                 ``for_windows`` consecutive sealed windows;
``below``        the value falls short of ``threshold`` (quorum degraded);
``ratio_above``  numerator / (numerator + denominator) window deltas exceed
                 ``threshold`` (abort-rate spike), gated on a minimum total;
``stalled``      a gauge stops increasing for ``for_windows`` windows while
                 an activity series shows progress (RCP stall under load);
``silent``       the watchdog: a series that has reported before receives
                 no samples for ``for_windows`` consecutive windows.

Every rule evaluates each labelled series matching its ``series`` name
independently (so ``repl.lag_records{node=dn0r1}`` trips separately from
``dn2r0``), fires once on entry into the bad state, and re-arms after one
healthy window. Series are visited in sorted (name, labels) order; nothing
here iterates a set or dict in insertion order, which is what makes the
alert stream digest-stable under ``PYTHONHASHSEED`` perturbation
(``python -m repro.lint --determinism`` proves it).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.obs.timeseries import Series, TimeSeriesStore
from repro.obs.trace import trace_digest

SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Rule:
    """One declarative monitor rule."""

    name: str
    series: str
    kind: str                   # above | below | ratio_above | stalled | silent
    severity: str = "warning"
    threshold: float = 0.0
    for_windows: int = 1        # consecutive bad windows before firing
    #: ratio_above: series name whose delta joins the denominator
    #: (denominator = numerator + this series' delta).
    denominator: str | None = None
    #: ratio_above: skip windows with fewer than this many total events.
    min_total: int = 0
    #: stalled: only count windows where this counter series shows progress.
    activity: str | None = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(frozen=True)
class Alert:
    """One structured monitor alert (digest-stable, JSON-serializable)."""

    rule: str
    severity: str
    series: str
    labels: tuple                # sorted (key, value) pairs
    window: int
    window_start_ns: int
    window_end_ns: int
    value: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "series": self.series,
            "labels": dict(self.labels),
            "window": self.window,
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "value": self.value,
            "threshold": self.threshold,
        }


def alerts_digest(alerts: typing.Iterable[Alert | dict]) -> str:
    """Order-sensitive SHA-256 over the alert stream (same canonical-JSON
    scheme as the trace digest, so the perturbation harness can compare
    alert streams across processes)."""
    return trace_digest(
        alert if isinstance(alert, dict) else alert.to_dict()
        for alert in alerts)


def default_monitor_rules(replicas_per_shard: int = 2,
                          staleness_bound_ns: int = 400_000_000,
                          lag_records: int = 5_000,
                          heartbeats: bool = True) -> tuple[Rule, ...]:
    """The default SLO set CI gates on. Thresholds are sized so a healthy
    run is silent: staleness in a live cluster stays well under the bound
    (the RCP advances every few ms), heartbeats keep every replica's
    frontier moving (no watchdog), and TPC-C abort rates are far below the
    spike threshold.

    ``heartbeats=False`` is for a cluster without ROR: nothing advances an
    idle replica's frontier there, so silence is not a fault and the
    ``frontier-silent`` watchdog is left out."""
    rules = (
        # The paper's headline promise: replica staleness stays bounded.
        Rule(name="staleness-bound", series="ror.staleness_ns", kind="above",
             severity="error", threshold=float(staleness_bound_ns)),
        # Replication lag persistently above threshold (log-shipping
        # backlog the replayer is not absorbing).
        Rule(name="replication-lag", series="repl.lag_records", kind="above",
             severity="warning", threshold=float(lag_records), for_windows=4),
        # A shard lost replica redundancy.
        Rule(name="quorum-degraded", series="cluster.shard_replicas_up",
             kind="below", severity="warning",
             threshold=float(replicas_per_shard), for_windows=2),
        # Abort-rate spike: > 50% of outcomes aborting, sustained.
        Rule(name="abort-spike", series="cn.aborts", kind="ratio_above",
             severity="warning", threshold=0.5, for_windows=2,
             denominator="cn.commits", min_total=20),
        # The RCP stopped advancing while commits kept happening.
        Rule(name="rcp-stall", series="ror.rcp", kind="stalled",
             severity="warning", for_windows=6, activity="cn.commits"),
    )
    if heartbeats:
        # Watchdog: a replica's applied frontier went silent (no samples),
        # e.g. its replayer died or shipping stopped entirely.
        rules += (Rule(name="frontier-silent", series="repl.applied_lsn",
                       kind="silent", severity="info", for_windows=8),)
    return rules


class _RuleState:
    """Consecutive-window bookkeeping for one (rule, labelled series)."""

    __slots__ = ("bad_streak", "firing", "last_value")

    def __init__(self):
        self.bad_streak = 0
        self.firing = False
        self.last_value = None


class MonitorEngine:
    """Evaluates rules at window boundaries; collects alerts."""

    enabled = True

    def __init__(self, env, store: TimeSeriesStore,
                 rules: typing.Sequence[Rule] = ()):
        self.env = env
        self.store = store
        self.rules = tuple(rules)
        self.alerts: list[Alert] = []
        self.windows_evaluated = 0
        self._state: dict[tuple, _RuleState] = {}
        store.add_listener(self.on_window_sealed)

    # ------------------------------------------------------------------
    def on_window_sealed(self, window: int, store: TimeSeriesStore) -> None:
        self.windows_evaluated += 1
        for rule in self.rules:
            if rule.kind == "ratio_above":
                self._eval_ratio(rule, window)
                continue
            for series in store.series_named(rule.series):
                if rule.kind == "silent":
                    self._eval_silent(rule, series, window)
                elif rule.kind == "stalled":
                    self._eval_stalled(rule, series, window)
                else:
                    self._eval_threshold(rule, series, window)

    # ------------------------------------------------------------------
    def _state_for(self, rule: Rule, labels: tuple) -> _RuleState:
        key = (rule.name, labels)
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = _RuleState()
        return state

    def _eval_threshold(self, rule: Rule, series: Series, window: int) -> None:
        value = series.value_in(window)
        if value is None:
            return  # no data this window; threshold rules need a sample
        if rule.kind == "above":
            bad = value > rule.threshold
        else:
            bad = value < rule.threshold
        self._step(rule, series.labels, window, bad, float(value), series.name)

    def _eval_silent(self, rule: Rule, series: Series, window: int) -> None:
        if series.last_window < 0:
            return  # never reported at all: nothing to watch yet
        state = self._state_for(rule, series.labels)
        silent_for = window - series.last_window
        if silent_for < rule.for_windows:
            state.firing = False  # healthy (or not yet silent long enough)
            return
        if not state.firing:
            state.firing = True
            self._fire(rule, series.name, series.labels, window,
                       float(silent_for))

    def _eval_stalled(self, rule: Rule, series: Series, window: int) -> None:
        value = series.value_in(window)
        state = self._state_for(rule, series.labels)
        if value is None:
            return  # silence is the watchdog's business, not the stall rule's
        progressed = state.last_value is None or value > state.last_value
        state.last_value = value
        if not progressed and rule.activity is not None:
            active = any(
                (activity.value_in(window) or 0) > 0
                for activity in self.store.series_named(rule.activity))
            if not active:
                return  # idle-and-flat: neither stall evidence nor recovery
        self._step(rule, series.labels, window, bad=not progressed,
                   value=float(value), series_name=series.name)

    def _eval_ratio(self, rule: Rule, window: int) -> None:
        numerator = sum(
            series.value_in(window) or 0
            for series in self.store.series_named(rule.series))
        denominator = numerator + sum(
            series.value_in(window) or 0
            for series in self.store.series_named(rule.denominator or ""))
        if denominator < max(1, rule.min_total):
            return
        ratio = numerator / denominator
        self._step(rule, (), window, bad=(ratio > rule.threshold),
                   value=ratio, series_name=rule.series)

    def _step(self, rule: Rule, labels: tuple, window: int, bad: bool,
              value: float, series_name: str) -> None:
        """Shared consecutive-window / fire-on-entry / re-arm logic."""
        state = self._state_for(rule, labels)
        if not bad:
            state.bad_streak = 0
            state.firing = False
            return
        state.bad_streak += 1
        if state.bad_streak >= rule.for_windows and not state.firing:
            state.firing = True
            self._fire(rule, series_name, labels, window, value)

    def _fire(self, rule: Rule, series_name: str, labels: tuple,
              window: int, value: float) -> None:
        start_ns, end_ns = self.store.window_bounds(window)
        alert = Alert(rule=rule.name, severity=rule.severity,
                      series=series_name, labels=labels, window=window,
                      window_start_ns=start_ns, window_end_ns=end_ns,
                      value=value, threshold=rule.threshold)
        self.alerts.append(alert)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete(
                "alert", rule.name, start_ns, end_ns, track="monitor",
                severity=rule.severity, series=series_name,
                labels=",".join(f"{k}={v}" for k, v in labels),
                window=window, value=value, threshold=rule.threshold)

    # ------------------------------------------------------------------
    def alerts_with(self, rule: str | None = None,
                    severity: str | None = None) -> list[Alert]:
        return [alert for alert in self.alerts
                if (rule is None or alert.rule == rule)
                and (severity is None or alert.severity == severity)]

    def digest(self) -> str:
        return alerts_digest(self.alerts)

    def snapshot(self) -> dict:
        return {
            "rules": [rule.name for rule in self.rules],
            "windows_evaluated": self.windows_evaluated,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "alerts_digest": self.digest(),
        }


class NullMonitor:
    """The default ``env.monitor``: no rules, no alerts."""

    enabled = False
    rules: tuple = ()
    alerts: list = []
    windows_evaluated = 0


#: Shared default monitor.
NULL_MONITOR = NullMonitor()
