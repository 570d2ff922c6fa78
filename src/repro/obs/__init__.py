"""Sim-native observability: metrics, transaction tracing, run reports.

The layer is **determinism-preserving** by construction: instruments and
spans only *record* — they never schedule simulation events, never consult
wall clocks, and never alter control flow. Every timestamp is
``Environment.now``. A run with observability enabled therefore produces a
byte-identical event history to the same run without it
(``tests/test_determinism.py`` proves this).

Quickstart::

    from repro import ClusterConfig, build_cluster, three_city

    config = ClusterConfig.globaldb(three_city(),
                                    metrics_enabled=True, trace_enabled=True)
    db = build_cluster(config)
    result = run_workload(db, workload, terminals=60, duration_s=1.0)

    report = RunReport.capture(db, result)
    print(report.render())                      # latency breakdown tables
    db.env.tracer.to_jsonl("run.trace.jsonl")   # lossless span log
    db.env.tracer.write_chrome_trace("run.trace.json")  # chrome://tracing

Convert / summarize trace files offline with ``python -m repro.obs``.
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    chrome_trace_dict,
    read_jsonl,
    trace_digest,
    window_categories,
    write_jsonl,
)
from repro.obs.timeseries import (
    DEFAULT_WINDOW_NS,
    NULL_TIMESERIES,
    NullTimeSeries,
    TimeSeriesStore,
)
from repro.obs.monitor import (
    NULL_MONITOR,
    Alert,
    MonitorEngine,
    NullMonitor,
    Rule,
    alerts_digest,
    default_monitor_rules,
)
from repro.obs.critpath import CriticalPathReport, TxnPath, analyze
from repro.obs.dashboard import Dashboard
from repro.obs.report import RunReport


def enable_observability(env, metrics: bool = True, trace: bool = True,
                         timeseries: bool = False):
    """Attach live metrics/tracing/telemetry to an environment (before
    building the cluster, so construction-time instruments register too).

    ``timeseries=True`` turns on the windowed sampler; a
    :class:`MonitorEngine` built on ``env.series`` (the builder attaches
    :func:`default_monitor_rules`) evaluates rules at its window seals.
    """
    if metrics:
        env.metrics = MetricsRegistry(env)
    if trace:
        env.tracer = Tracer(env)
    if timeseries:
        env.series = TimeSeriesStore(env)
    # Keep the kernel's single-load instrumentation guards in sync
    # (see Environment.__init__): hot paths read these instead of
    # ``env.metrics.enabled`` / ``env.tracer.enabled``.
    env.metrics_on = env.metrics.enabled
    env.trace_on = env.tracer.enabled
    env.series_on = env.series.enabled
    return env.metrics, env.tracer


def telemetry_snapshot(env) -> dict:
    """The JSON document ``repro.obs dash`` consumes: the time-series dump
    plus the monitor's alert stream. Call after ``env.series.catch_up()``
    so trailing windows are sealed and evaluated."""
    return {
        "timeseries": env.series.snapshot(),
        "monitor": env.monitor.snapshot(),
    }


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "LATENCY_BUCKETS_NS",
    "SIZE_BUCKETS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RunReport",
    "chrome_trace_dict",
    "read_jsonl",
    "trace_digest",
    "window_categories",
    "write_jsonl",
    "enable_observability",
    "telemetry_snapshot",
    "TimeSeriesStore",
    "NullTimeSeries",
    "NULL_TIMESERIES",
    "DEFAULT_WINDOW_NS",
    "Rule",
    "Alert",
    "MonitorEngine",
    "NullMonitor",
    "NULL_MONITOR",
    "alerts_digest",
    "default_monitor_rules",
    "CriticalPathReport",
    "TxnPath",
    "analyze",
    "Dashboard",
]
