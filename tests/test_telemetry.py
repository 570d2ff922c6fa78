"""The telemetry pipeline: windowed time-series, online SLO monitors,
commit critical-path analysis, and the dashboard.

Everything here must hold deterministically: the same run produces the
same windows, the same alerts (same windows, same labels), and a
critical-path attribution that sums to each transaction's measured e2e
latency *exactly* — these are the assertable claims the telemetry layer
exists to make checkable.
"""

import json

import pytest

from repro import ClusterConfig, build_cluster, one_region
from repro.obs import telemetry_snapshot
from repro.obs.critpath import SEGMENTS, CriticalPathReport, analyze
from repro.obs.dashboard import Dashboard
from repro.obs.monitor import (
    MonitorEngine,
    Rule,
    alerts_digest,
    default_monitor_rules,
)
from repro.obs.timeseries import COUNTER, GAUGE, TimeSeriesStore
from repro.sim.core import Environment
from repro.sim.units import ms
from repro.workloads import TpccConfig, TpccWorkload, run_workload

W = 100  # tiny window width for unit tests


def make_store(window_ns=W, capacity=256):
    return TimeSeriesStore(Environment(), window_ns=window_ns,
                           capacity=capacity)


class TestWindowBucketing:
    def test_half_open_windows_boundary_goes_to_later_window(self):
        store = make_store()
        store.record_at(W - 1, "x", 1, GAUGE, {})
        store.record_at(W, "x", 2, GAUGE, {})  # exactly on the boundary
        series = store.series("x")
        assert series.value_in(0) == 1
        assert series.value_in(1) == 2

    def test_gauge_window_aggregates(self):
        store = make_store()
        for at, value in ((10, 5), (20, 9), (30, 2)):
            store.record_at(at, "x", value, GAUGE, {})
        window = store.series("x").window(0)
        assert (window.last, window.min, window.max, window.count) == (2, 2, 9, 3)

    def test_counter_window_is_the_delta_sum(self):
        store = make_store()
        store.record_at(10, "c", 3, COUNTER, {})
        store.record_at(90, "c", 4, COUNTER, {})
        store.record_at(150, "c", 1, COUNTER, {})
        series = store.series("c")
        assert series.value_in(0) == 7
        assert series.value_in(1) == 1

    def test_out_of_order_sample_lands_in_its_own_window(self):
        """A late sample aimed at an already-sealed (but retained) window
        is folded there, not into the current one."""
        store = make_store()
        store.record_at(250, "x", 9, GAUGE, {})
        store.record_at(50, "x", 1, GAUGE, {})  # out of order, window 0
        series = store.series("x")
        assert series.value_in(0) == 1
        assert series.value_in(2) == 9

    def test_ring_eviction_keeps_capacity_and_counts_drops(self):
        store = make_store(capacity=2)
        for window in range(6):
            store.record_at(window * W + 1, "x", window, GAUGE, {})
        series = store.series("x")
        assert series.nonempty_windows() == [4, 5]
        # A sample below the ring floor is dropped, not resurrected.
        store.record_at(1, "x", 99, GAUGE, {})
        assert series.nonempty_windows() == [4, 5]
        assert series.dropped == 1
        assert store.dropped == 1

    def test_labels_make_distinct_series(self):
        store = make_store()
        store.record_at(10, "x", 1, GAUGE, {"node": "a"})
        store.record_at(10, "x", 2, GAUGE, {"node": "b"})
        assert store.series("x", node="a").value_in(0) == 1
        assert store.series("x", node="b").value_in(0) == 2
        assert [s.labels for s in store.series_named("x")] == [
            (("node", "a"),), (("node", "b"),)]

    def test_listeners_see_windows_sealed_in_order(self):
        store = make_store()
        sealed = []
        store.add_listener(lambda window, _store: sealed.append(window))
        store.record_at(10, "x", 1, GAUGE, {})
        store.record_at(3 * W + 1, "x", 2, GAUGE, {})  # seals 0, 1, 2
        assert sealed == [0, 1, 2]
        store.env.now = 5 * W + 10
        store.catch_up()  # seals 3, 4 (window 5 is still open)
        assert sealed == [0, 1, 2, 3, 4]
        assert store.frontier == 5

    def test_snapshot_is_sorted_and_json_serializable(self):
        store = make_store()
        store.record_at(10, "b", 1, GAUGE, {"n": "2"})
        store.record_at(10, "a", 1, COUNTER, {})
        snapshot = store.snapshot()
        json.dumps(snapshot)
        assert [s["name"] for s in snapshot["series"]] == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_store(window_ns=0)
        with pytest.raises(ValueError):
            make_store(capacity=1)


class _Driver:
    """Drives a store + engine through explicit windows."""

    def __init__(self, rules, window_ns=W):
        self.store = make_store(window_ns=window_ns)
        self.engine = MonitorEngine(self.store.env, self.store, rules)

    def put(self, window, name, value, kind=GAUGE, **labels):
        self.store.record_at(window * W + 10, name, value, kind, labels)

    def seal_through(self, window):
        self.store.env.now = (window + 1) * W
        self.store.catch_up()

    @property
    def alerts(self):
        return self.engine.alerts


class TestMonitorRules:
    def test_above_fires_after_n_windows_and_rearms(self):
        driver = _Driver([Rule(name="hot", series="x", kind="above",
                               threshold=10, for_windows=2,
                               severity="error")])
        for window, value in enumerate([20, 20, 20, 5, 20, 20]):
            driver.put(window, "x", value)
        driver.seal_through(5)
        # Fires at window 1 (second consecutive bad), stays latched through
        # window 2, re-arms on the healthy window 3, fires again at 5.
        assert [(a.window, a.rule) for a in driver.alerts] == [
            (1, "hot"), (5, "hot")]
        assert driver.alerts[0].severity == "error"
        assert driver.alerts[0].value == 20.0

    def test_above_skips_empty_windows(self):
        driver = _Driver([Rule(name="hot", series="x", kind="above",
                               threshold=10, for_windows=2)])
        driver.put(0, "x", 20)
        driver.put(3, "x", 20)  # windows 1-2 have no sample
        driver.seal_through(4)
        assert [a.window for a in driver.alerts] == [3]

    def test_below_quorum(self):
        driver = _Driver([Rule(name="quorum", series="up", kind="below",
                               threshold=2, for_windows=1)])
        driver.put(0, "up", 2, node="s0")
        driver.put(1, "up", 1, node="s0")
        driver.seal_through(2)
        assert [(a.window, dict(a.labels)) for a in driver.alerts] == [
            (1, {"node": "s0"})]

    def test_ratio_above_needs_min_total(self):
        rule = Rule(name="aborts", series="bad", kind="ratio_above",
                    threshold=0.5, denominator="good", min_total=10)
        driver = _Driver([rule])
        driver.put(0, "bad", 3, kind=COUNTER)   # 3/4 but total < 10
        driver.put(0, "good", 1, kind=COUNTER)
        driver.put(1, "bad", 9, kind=COUNTER)   # 9/12 >= min_total
        driver.put(1, "good", 3, kind=COUNTER)
        driver.seal_through(2)
        assert [a.window for a in driver.alerts] == [1]
        assert driver.alerts[0].value == 0.75

    def test_stalled_requires_activity(self):
        rule = Rule(name="stall", series="rcp", kind="stalled",
                    for_windows=2, activity="commits")
        driver = _Driver([rule])
        values = [10, 20, 20, 20, 20]
        for window, value in enumerate(values):
            driver.put(window, "rcp", value)
            # Commits happen in every window except 3: the stall only
            # counts windows with activity.
            if window != 3:
                driver.put(window, "commits", 1, kind=COUNTER)
        driver.seal_through(4)
        # rcp is flat from window 2 on; windows 2 and 4 are active-and-flat
        # (3 is idle), so the second counted stall window is 4.
        assert [a.window for a in driver.alerts] == [4]

    def test_silent_watchdog_fires_once_then_rearms(self):
        rule = Rule(name="silent", series="y", kind="silent", for_windows=2)
        driver = _Driver([rule])
        driver.put(0, "y", 1)
        for window in range(6):  # keep windows sealing via another series
            driver.put(window, "tick", 1)
        driver.put(5, "y", 2)  # y recovers in window 5
        driver.seal_through(6)
        fired = [a for a in driver.alerts if a.rule == "silent"]
        assert [a.window for a in fired] == [2]  # once, not every window
        assert fired[0].value == 2.0  # silent for 2 windows

    def test_alert_stream_digest_is_stable(self):
        def once():
            driver = _Driver([Rule(name="hot", series="x", kind="above",
                                   threshold=1)])
            for window in range(4):
                driver.put(window, "x", 5, node="a")
            driver.seal_through(4)
            return driver.engine.digest(), len(driver.alerts)

        first, second = once(), once()
        assert first == second
        # fire-on-entry: latched after the first bad window.
        assert first[1] == 1

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Rule(name="r", series="x", kind="above", severity="fatal")

    def test_alerts_digest_of_empty_stream(self):
        assert len(alerts_digest(())) == 64


def _telemetry_run(duration_s=0.7, warmup_s=0.1):
    db = build_cluster(ClusterConfig.globaldb(
        one_region(), seed=0, trace_enabled=True, timeseries_enabled=True))
    workload = TpccWorkload(TpccConfig(
        warehouses=2, districts_per_warehouse=2, customers_per_district=10,
        items=20, initial_orders_per_district=5, seed=42))
    result = run_workload(db, workload, terminals=4, duration_s=duration_s,
                          warmup_s=warmup_s)
    db.env.series.catch_up()
    return db, result


_CACHED = {}


def telemetry_run():
    if "run" not in _CACHED:
        _CACHED["run"] = _telemetry_run()
    return _CACHED["run"]


class TestLiveTelemetry:
    def test_replication_lag_series_has_dense_windows(self):
        """Acceptance: >= 10 non-empty replication-lag windows per replica
        on a standard traced run."""
        db, _result = telemetry_run()
        lag_series = db.env.series.series_named("repl.lag_records")
        replicas = {name for replica_list in db.replicas.values()
                    for name in (node.name for node in replica_list)}
        assert {dict(s.labels)["node"] for s in lag_series} == replicas
        for series in lag_series:
            assert len(series.nonempty_windows()) >= 10, \
                f"{series.labels}: {series.nonempty_windows()}"

    def test_healthy_run_is_alert_free(self):
        db, _result = telemetry_run()
        assert db.env.monitor.alerts == []
        assert db.env.monitor.windows_evaluated >= 10

    def test_core_series_exist(self):
        db, _result = telemetry_run()
        store = db.env.series
        for name in ("repl.applied_lsn", "repl.applied_ts", "repl.ship_lsn",
                     "ror.rcp", "ror.staleness_ns", "ror.frontier_ts",
                     "ror.skyline_size", "cn.commits",
                     "cluster.node_up", "cluster.shard_replicas_up"):
            assert store.series_named(name), f"no series {name}"
        # gtm.requests only exists when CNs actually RPC the GTM — the
        # one_region default runs GClock, where they don't.

    def test_telemetry_snapshot_round_trips_through_json(self):
        db, _result = telemetry_run()
        snapshot = telemetry_snapshot(db.env)
        clone = json.loads(json.dumps(snapshot))
        assert clone["monitor"]["alerts_digest"] == db.env.monitor.digest()
        assert len(clone["timeseries"]["series"]) == \
            len(db.env.series.all_series())

    def test_telemetry_does_not_perturb_history(self):
        """The pipeline is passive: a telemetry run's history equals the
        bare run's, down to every latency sample."""
        def run_once(telemetry):
            db = build_cluster(ClusterConfig.globaldb(
                one_region(), seed=0, timeseries_enabled=telemetry))
            workload = TpccWorkload(TpccConfig(
                warehouses=2, districts_per_warehouse=2,
                customers_per_district=10, items=20,
                initial_orders_per_district=5, seed=42))
            result = run_workload(db, workload, terminals=4, duration_s=0.3,
                                  warmup_s=0.05)
            return (result.stats.committed, result.stats.aborted,
                    db.env.now, db.gtm.counter,
                    sorted(result.stats.latencies_ns)[:20])

        assert run_once(True) == run_once(False)

    def test_alert_stream_identical_across_fresh_runs(self):
        first_db, _ = _telemetry_run(duration_s=0.3, warmup_s=0.05)
        second_db, _ = _telemetry_run(duration_s=0.3, warmup_s=0.05)
        assert first_db.env.monitor.digest() == second_db.env.monitor.digest()
        assert (first_db.env.series.snapshot()
                == second_db.env.series.snapshot())


class TestStalenessAlert:
    def test_paused_shipping_provokes_staleness_alert(self):
        """Acceptance: a provoked staleness violation fires the
        severity=error staleness-bound alert with the right window and
        node labels."""
        db = build_cluster(ClusterConfig.globaldb(
            one_region(), seed=0, timeseries_enabled=True))
        workload = TpccWorkload(TpccConfig(
            warehouses=2, districts_per_warehouse=2,
            customers_per_district=10, items=20,
            initial_orders_per_district=5, seed=42))
        workload.setup(db)
        env = db.env
        pause_at = {}

        def chaos():
            yield env.timeout(ms(200))
            pause_at["ns"] = env.now
            for shipper in db.shippers:
                if shipper.src == "dn0":
                    shipper.pause()

        env.process(chaos())
        run_workload(db, workload, terminals=4, duration_s=1.0,
                     setup=False)
        env.series.catch_up()

        alerts = db.env.monitor.alerts_with(rule="staleness-bound",
                                            severity="error")
        assert alerts, "paused shipping did not trip the staleness bound"
        window_ns = env.series.window_ns
        shard0 = {node.name for node in db.replicas[0]}
        for alert in alerts:
            labels = dict(alert.labels)
            assert labels["node"] in shard0, alert
            # The violation cannot predate the pause + the 400 ms bound.
            assert alert.window_start_ns >= pause_at["ns"], alert
            assert alert.window >= (pause_at["ns"] + ms(400)) // window_ns - 1
        # Only shard-0 replicas went stale.
        all_staleness_alerts = db.env.monitor.alerts_with(
            rule="staleness-bound")
        assert {dict(a.labels)["node"] for a in all_staleness_alerts} \
            <= shard0
        # The stalled frontier also wakes the silent watchdog eventually.
        silent = db.env.monitor.alerts_with(rule="frontier-silent")
        assert {dict(a.labels)["node"] for a in silent} <= shard0


class TestCriticalPath:
    def test_attribution_sums_exactly_to_e2e_latency(self):
        """Acceptance: per-segment sum equals measured e2e commit latency
        to the nanosecond, for every transaction."""
        db, _result = telemetry_run()
        paths = analyze(db.env.tracer.spans)
        assert len(paths) > 100
        for path in paths:
            assert path.attributed_ns == path.e2e_ns, path.to_dict()
            assert all(value >= 0 for value in path.segments.values()), \
                path.to_dict()
        report = CriticalPathReport(paths)
        assert report.max_attribution_error_ns() == 0

    def test_segment_shares_sum_to_one(self):
        db, _result = telemetry_run()
        report = CriticalPathReport.from_spans(db.env.tracer.spans)
        agg = report.aggregate()
        assert sum(row["share"] for row in agg.values()) == \
            pytest.approx(1.0)
        assert sum(row["dominates"] for row in agg.values()) == \
            len(report.paths)

    def test_analyze_accepts_span_dicts(self):
        db, _result = telemetry_run()
        dicts = [span.to_dict() for span in db.env.tracer.spans]
        from_objects = analyze(db.env.tracer.spans)
        from_dicts = analyze(dicts)
        assert [p.to_dict() for p in from_objects] == \
            [p.to_dict() for p in from_dicts]

    def test_window_filter_matches_report(self):
        db, result = telemetry_run()
        stats = result.stats
        window = (stats.window_start_ns,
                  stats.window_start_ns + stats.window_ns)
        inside = analyze(db.env.tracer.spans, window)
        everything = analyze(db.env.tracer.spans)
        assert 0 < len(inside) <= len(everything)
        assert all(window[0] <= p.end_ns < window[1] for p in inside)

    def test_synthetic_overlap_attribution(self):
        """Overlapping children: commit-wait shadows the rpc it overlaps;
        the residual picks up the uncovered remainder."""
        spans = [
            {"cat": "txn", "name": "begin", "track": "cn", "start_ns": 0,
             "end_ns": 10, "args": {"txid": 1}},
            {"cat": "txn", "name": "execute", "track": "cn", "start_ns": 10,
             "end_ns": 30, "args": {"txid": 1}},
            {"cat": "txn", "name": "commit", "track": "cn", "start_ns": 30,
             "end_ns": 100, "args": {"txid": 1}},
            {"cat": "ts", "name": "commit_wait", "track": "cn",
             "start_ns": 40, "end_ns": 60, "args": {"txid": 1}},
            {"cat": "ts", "name": "commit_rpc", "track": "cn",
             "start_ns": 50, "end_ns": 70, "args": {"txid": 1}},
            # Two parallel flushes; one sticks out past the rpc.
            {"cat": "wal", "name": "flush", "track": "dn0", "start_ns": 55,
             "end_ns": 80, "args": {"txid": 1}},
            {"cat": "wal", "name": "flush", "track": "dn1", "start_ns": 60,
             "end_ns": 75, "args": {"txid": 1}},
        ]
        (path,) = analyze(spans)
        assert path.segments == {
            SEGMENTS[0]: 10,   # begin
            SEGMENTS[1]: 20,   # execute
            SEGMENTS[2]: 20,   # commit-wait [40,60)
            SEGMENTS[3]: 10,   # rpc exclusive [60,70)
            SEGMENTS[4]: 10,   # flush exclusive [70,80)
            SEGMENTS[5]: 30,   # residual [30,40) + [80,100)
        }
        assert path.attributed_ns == path.e2e_ns == 100


class TestDashboard:
    def _dashboard(self):
        db, result = telemetry_run()
        return Dashboard(telemetry=telemetry_snapshot(db.env),
                         spans=[span.to_dict()
                                for span in db.env.tracer.spans],
                         title="test run")

    def test_text_render(self):
        text = self._dashboard().render_text()
        assert "test run" in text
        assert "repl.lag_records" in text
        assert "Critical path" in text

    def test_html_render_is_self_contained(self):
        html_out = self._dashboard().render_html()
        assert html_out.startswith("<!DOCTYPE html>")
        assert "<svg" in html_out and "polyline" in html_out
        assert "repl.lag_records" in html_out
        assert "http://" not in html_out and "https://" not in html_out

    def test_error_alert_gate(self):
        dashboard = self._dashboard()
        assert dashboard.error_alerts() == []
        dashboard.telemetry["monitor"]["alerts"].append({
            "rule": "staleness-bound", "severity": "error", "series": "s",
            "labels": {}, "window": 3, "window_start_ns": 0,
            "window_end_ns": 1, "value": 2.0, "threshold": 1.0})
        assert len(dashboard.error_alerts()) == 1

    def test_empty_dashboard_renders(self):
        dashboard = Dashboard()
        assert "no telemetry captured" in dashboard.render_text()
        assert "<!DOCTYPE html>" in dashboard.render_html()


class TestZeroCommitGuards:
    def test_workload_stats_empty_percentiles(self):
        from repro.workloads.driver import WorkloadStats

        stats = WorkloadStats()
        assert stats.latency_percentile_ms(50) == 0.0
        assert stats.mean_latency_ms == 0.0
        assert stats.abort_rate == 0.0
        summary = stats.summary()
        assert summary["committed"] == 0
        assert summary["p99_ms"] == 0.0
        assert WorkloadStats._pick([], 99) == 0

    def test_zero_commit_run_report(self):
        """A traced run with no terminals commits nothing; every report
        path must return zeros instead of raising."""
        from repro.obs.report import RunReport

        db = build_cluster(ClusterConfig.globaldb(
            one_region(), seed=0, metrics_enabled=True, trace_enabled=True))
        workload = TpccWorkload(TpccConfig(
            warehouses=1, districts_per_warehouse=1,
            customers_per_district=5, items=10,
            initial_orders_per_district=2, seed=7))
        result = run_workload(db, workload, terminals=0, duration_s=0.05)
        assert result.stats.committed == 0
        assert result.summary()  # must not raise
        report = RunReport.capture(db, result)
        assert report.e2e_p50_ns() == 0
        assert report.median_transaction() is None
        assert report.breakdown_error() == 0.0
        assert report.render()  # must not raise
        assert report.to_dict()["traced_transactions"] == 0
        dashboard = Dashboard(spans=[span.to_dict()
                                     for span in db.env.tracer.spans])
        assert "no complete traced transactions" in dashboard.render_text()
