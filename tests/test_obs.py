"""Observability layer (repro.obs): instruments, tracer, and run reports.

The end-to-end half of this file is the acceptance test for the layer:
a traced TPC-C run must produce spans in at least six categories and a
commit-latency breakdown whose components sum to within 5% of the
measured end-to-end p50 (by construction they agree exactly).
"""

import json

from repro import ClusterConfig, build_cluster, one_region
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunReport,
    Tracer,
    read_jsonl,
)
from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (BREAKDOWN_COMPONENTS, extract_transactions,
                              messages_by_kind)
from repro.workloads import TpccConfig, TpccWorkload, run_workload
from repro.workloads.driver import WorkloadStats


class FakeEnv:
    """A bare clock: the only thing instruments may read."""

    def __init__(self):
        self.now = 0


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge_tracks_max(self):
        gauge = Gauge()
        gauge.set(10, now=100)
        gauge.set(3, now=200)
        assert gauge.value == 3
        assert gauge.max_value == 10
        assert gauge.updated_at == 200

    def test_histogram_exact_stats(self):
        hist = Histogram()
        for value in (1_000, 2_000, 5_000, 1_000_000):
            hist.record(value)
        assert hist.count == 4
        assert hist.sum == 1_008_000
        assert hist.min == 1_000
        assert hist.max == 1_000_000
        assert hist.mean == 252_000.0

    def test_histogram_percentiles_clamped_to_observed_range(self):
        hist = Histogram()
        for value in (3_000, 4_000, 900_000):
            hist.record(value)
        for pct in (1, 50, 99):
            assert hist.min <= hist.percentile(pct) <= hist.max

    def test_histogram_percentile_monotone(self):
        hist = Histogram()
        for value in range(1_000, 2_000_000, 37_000):
            hist.record(value)
        estimates = [hist.percentile(pct) for pct in (10, 50, 90, 99)]
        assert estimates == sorted(estimates)

    def test_histogram_overflow_bucket(self):
        hist = Histogram(buckets=SIZE_BUCKETS)
        hist.record(10 ** 9)  # above the last bound
        bounds, counts = zip(*hist.bucket_counts())
        assert bounds[-1] == float("inf")
        assert counts[-1] == 1

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_instruments_cached_by_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("a", node="x") is registry.counter("a", node="x")
        assert registry.counter("a", node="x") is not registry.counter("a", node="y")
        assert registry.counter("a") is not registry.histogram("a")

    def test_set_gauge_stamps_sim_time(self):
        env = FakeEnv()
        registry = MetricsRegistry(env)
        env.now = 777
        registry.set_gauge("lag", 42, node="r1")
        assert registry.gauge("lag", node="r1").updated_at == 777

    def test_snapshot_shapes(self):
        registry = MetricsRegistry(FakeEnv())
        registry.counter("msgs").inc(3)
        registry.set_gauge("depth", 9)
        registry.histogram("lat").record(5_000)
        rows = {row["name"]: row for row in registry.snapshot()}
        assert rows["msgs"]["value"] == 3
        assert rows["depth"]["value"] == 9
        assert rows["lat"]["count"] == 1
        json.dumps(registry.snapshot())  # must stay serializable

    def test_null_registry_is_inert(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("x", node="y").inc()
        NULL_REGISTRY.set_gauge("x", 1)
        NULL_REGISTRY.histogram("x").record(5)
        assert NULL_REGISTRY.snapshot() == []


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_start_finish_uses_sim_time_and_nests(self):
        env = FakeEnv()
        tracer = Tracer(env)
        outer = tracer.start("txn", "outer", track="cn1")
        env.now = 10
        inner = tracer.start("txn", "inner", track="cn1")
        env.now = 25
        inner.finish()
        env.now = 40
        outer.finish(ok=True)
        assert [span.name for span in tracer.spans] == ["inner", "outer"]
        assert inner.depth == 1 and outer.depth == 0
        assert outer.start == 0 and outer.end == 40
        assert outer.args == {"ok": True}

    def test_complete_and_instant(self):
        env = FakeEnv()
        env.now = 50
        tracer = Tracer(env)
        tracer.complete("net", "msg", 10, 30, track="a->b", size=64)
        tracer.instant("gtm", "tick")
        spans = tracer.spans
        assert spans[0].duration_ns == 20
        assert spans[1].start == spans[1].end == 50

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(FakeEnv(), max_spans=2)
        for i in range(5):
            tracer.complete("txn", f"s{i}", 0, 1)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_aggregation(self):
        tracer = Tracer(FakeEnv())
        tracer.complete("net", "msg", 0, 5)
        tracer.complete("net", "msg", 0, 7)
        tracer.complete("wal", "flush", 0, 3)
        assert tracer.counts_by_category() == {"net": 2, "wal": 1}
        assert tracer.duration_by_category() == {"net": 12, "wal": 3}
        assert len(tracer.spans_in("net", "msg")) == 2

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(FakeEnv())
        tracer.complete("txn", "commit", 100, 250, track="cn1",
                        txid=7, mode="gclock")
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(path) == 1
        [span] = read_jsonl(path)
        assert span["cat"] == "txn" and span["name"] == "commit"
        assert span["start_ns"] == 100 and span["end_ns"] == 250
        assert span["args"]["txid"] == 7

    def test_chrome_trace_format(self):
        tracer = Tracer(FakeEnv())
        tracer.complete("txn", "commit", 1_000, 3_000, track="cn1")
        tracer.complete("gtm", "tick", 500, 500, track="gtm")
        trace = tracer.chrome_trace()
        json.dumps(trace)  # loadable by chrome://tracing
        events = trace["traceEvents"]
        names = {event["args"].get("name") for event in events
                 if event["ph"] == "M"}
        assert {"repro-sim", "cn1", "gtm"} <= names
        complete = [e for e in events if e["ph"] == "X"]
        instant = [e for e in events if e["ph"] == "i"]
        assert complete[0]["ts"] == 1.0 and complete[0]["dur"] == 2.0  # us
        assert len(instant) == 1

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.start("txn", "x")
        assert span.finish(ok=True) is span
        NULL_TRACER.complete("txn", "x", 0, 1)
        NULL_TRACER.instant("txn", "x")
        assert NULL_TRACER.spans == []


# ----------------------------------------------------------------------
# Breakdown extraction
# ----------------------------------------------------------------------
class TestExtractTransactions:
    def _traced_txn(self, tracer, txid, base):
        tracer.complete("txn", "begin", base, base + 10, txid=txid)
        tracer.complete("txn", "execute", base + 10, base + 50, txid=txid)
        tracer.complete("txn", "commit", base + 50, base + 80, txid=txid)
        tracer.complete("ts", "commit_wait", base + 52, base + 60, txid=txid)
        # Two parallel shard flushes: the longer one is the critical path.
        tracer.complete("wal", "flush", base + 60, base + 65, txid=txid)
        tracer.complete("wal", "flush", base + 60, base + 70, txid=txid)

    def test_components_sum_to_total(self):
        tracer = Tracer(FakeEnv())
        self._traced_txn(tracer, txid=1, base=0)
        [txn] = extract_transactions(tracer.spans)
        parts = txn.components()
        assert set(parts) == set(BREAKDOWN_COMPONENTS)
        assert sum(parts.values()) == txn.total == 80
        assert parts["commit wait"] == 8
        assert parts["log flush / acks"] == 10  # max, not sum

    def test_incomplete_and_unlabelled_spans_ignored(self):
        tracer = Tracer(FakeEnv())
        tracer.complete("txn", "begin", 0, 10, txid=9)  # no execute/commit
        tracer.complete("txn", "new_order", 0, 80)      # driver span, no txid
        assert extract_transactions(tracer.spans) == []

    def test_window_filter(self):
        tracer = Tracer(FakeEnv())
        self._traced_txn(tracer, txid=1, base=0)      # commit ends at 80
        self._traced_txn(tracer, txid=2, base=1_000)  # commit ends at 1080
        inside = extract_transactions(tracer.spans, window=(500, 2_000))
        assert [txn.txid for txn in inside] == [2]


# ----------------------------------------------------------------------
# WorkloadStats (satellite: cached percentiles + summary)
# ----------------------------------------------------------------------
class TestWorkloadStats:
    def test_percentile_cache_invalidated_by_record(self):
        stats = WorkloadStats()
        for latency in (5, 1, 9):
            stats.record("t", latency, ok=True)
        assert stats.latency_percentile_ms(50) == 5 / 1e6
        stats.record("t", 100, ok=True)  # must drop the cached sort
        assert stats.latency_percentile_ms(100) == 100 / 1e6
        assert stats.latencies_ns == [5, 1, 9, 100]  # insertion order kept

    def test_summary(self):
        stats = WorkloadStats(window_ns=1_000_000_000)
        stats.record("t", 2_000_000, ok=True)
        stats.record("t", 4_000_000, ok=True)
        stats.record("t", 0, ok=False)
        summary = stats.summary()
        assert summary["committed"] == 2 and summary["aborted"] == 1
        assert summary["throughput_per_s"] == 2.0
        assert summary["mean_ms"] == 3.0
        assert summary["p50_ms"] == 2.0 or summary["p50_ms"] == 4.0
        json.dumps(summary)


# ----------------------------------------------------------------------
# End to end: traced run -> report (the layer's acceptance criteria)
# ----------------------------------------------------------------------
def _traced_run():
    db = build_cluster(ClusterConfig.globaldb(
        one_region(), seed=1, metrics_enabled=True, trace_enabled=True))
    workload = TpccWorkload(TpccConfig(
        warehouses=2, districts_per_warehouse=2, customers_per_district=10,
        items=20, initial_orders_per_district=5, seed=7))
    result = run_workload(db, workload, terminals=6, duration_s=0.5,
                          warmup_s=0.1)
    return db, result


class TestRunReport:
    def test_traced_run_report(self):
        db, result = _traced_run()
        report = RunReport.capture(db, result)

        # Acceptance: spans in at least six distinct categories.
        assert len(report.category_counts) >= 6, report.category_counts

        # Acceptance: breakdown components within 5% of measured e2e p50
        # (exact by construction — the spans partition the interval).
        assert report.transactions, "no read-write transactions traced"
        assert report.breakdown_error() <= 0.05
        median = report.median_transaction()
        assert sum(median.components().values()) == median.total

        # The chrome export of a real run must be valid JSON.
        trace = db.env.tracer.chrome_trace()
        assert json.loads(json.dumps(trace))["traceEvents"]

        rendered = report.render()
        assert "commit latency breakdown" in rendered
        assert "timestamp acquisition" in rendered
        json.dumps(report.to_dict())

    def test_messages_per_commit_by_kind(self, tmp_path, capsys):
        db, result = _traced_run()
        report = RunReport.capture(db, result)
        stats = result.stats
        window = (stats.window_start_ns,
                  stats.window_start_ns + stats.window_ns)
        sent_in_window = [span for span in db.env.tracer.spans_in("net")
                          if window[0] <= span.start < window[1]]
        # Every message the network traced is in exactly one row.
        assert sum(report.message_counts.values()) == len(sent_in_window)
        assert report.commits == stats.committed
        # A request kind and the replies; the ROR control plane shows up
        # under its own names.
        for kind in ("rpc_reply", "update", "redo_batch", "redo_ack",
                     "status", "heartbeat"):
            assert report.message_counts[kind] > 0, kind
        counts = list(report.message_counts.values())
        assert counts == sorted(counts, reverse=True)
        table = report.messages_table()
        assert table.column("kind")[-1] == "all kinds"
        assert table.cell(0, "per_commit") == counts[0] / stats.committed
        assert table.column("messages")[-1] == len(sent_in_window)
        assert table.to_dict() in report.to_dict()["tables"]

        # The same count from the written trace: spans or their dicts.
        path = tmp_path / "trace.jsonl"
        db.env.tracer.to_jsonl(str(path))
        assert messages_by_kind(read_jsonl(path)) == \
            messages_by_kind(db.env.tracer.spans)
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        kinds, commits = messages_by_kind(db.env.tracer.spans)
        assert f"{sum(kinds.values())} network messages for {commits} " \
               f"commits" in out
        assert "heartbeat" in out and "per commit" in out

    def test_report_without_tracing_is_graceful(self):
        db = build_cluster(ClusterConfig.globaldb(one_region(), seed=1))
        db.run_for(0.05)
        report = RunReport.capture(db)
        assert report.category_counts == {}
        assert report.breakdown_error() == 0.0
        assert report.message_counts == {}
        rendered = report.render()
        assert "no traced read-write transactions" in rendered
        assert "no traced network messages" in rendered
