"""The run protocol: passes, host timers, sim numbers, boundary counters.

A *pass* builds a fresh cluster and loads the data (set-up), makes one
untimed ``run_workload`` call for the simulated warm-up, then one timed
``run_workload`` call on the same cluster. CPU time, events, commits and
latencies all cover that one timed call. Host time is ``process_time``
(CPU-seconds: the box is shared; the two host timings report their best
pass, every other metric the median over passes), the garbage collector
stays on at its default thresholds and is timed from outside through
``gc.callbacks``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import resource
import statistics
import time

from repro.sim.network import NetworkStats
from repro.workloads import run_workload

from scenarios import Scenario

#: A pass whose wall time exceeds its CPU time by more than this factor
#: was descheduled while it ran; it is flagged, not dropped.
PREEMPTED_WALL_OVER_CPU = 1.15
#: ``sim_tail_ms`` averages the slowest tenth of the commits.
TAIL_SHARE = 0.10
#: Longer than the lock-wait timeout, so an interval this long without a
#: commit or abort means no transaction is still in flight.
QUIESCE_STEP_S = 1.1

#: name -> (unit, "host" | "sim"). Directions and bounds are in
#: BENCHMARK.json.
END_TO_END = {
    "commits_per_cpu_s": ("1/s", "host"),
    "events_per_commit": ("count", "host"),
    "sim_tps": ("1/s", "sim"),
    "sim_mean_ms": ("ms", "sim"),
    "sim_tail_ms": ("ms", "sim"),
    "committed_share": ("share", "sim"),
    "peak_rss_mb": ("MB", "host"),
    "setup_s": ("s", "host"),
}
#: Metrics that repeat exactly for one seed on one commit.
EXACT = ("events_per_commit", "sim_tps", "sim_mean_ms", "sim_tail_ms",
         "committed_share")

COUNTER_UNITS = {
    "sim.network.msgs_per_commit": "count",
    "sim.network.bytes_per_commit": "B",
    "storage.wal.bytes_per_commit": "B",
    "replication.wire_bytes_per_wal_byte": "ratio",
    "txn.gtm_requests_per_commit": "count",
    "txn.commit_wait_ms_mean": "ms",
    "ror.replica_read_share": "share",
    "ror.rcp_lag_ms": "ms",
    "storage.locks.conflicts_per_kcommit": "count",
    "cluster.cn.abort_share": "share",
}


class GcTimer:
    """Times collections from outside the collector, via ``gc.callbacks``."""

    def __init__(self):
        self.cpu_s = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.process_time()
        else:
            self.cpu_s += time.process_time() - self._started
            self.collections += 1

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._callback)


def _boundary_totals(db) -> dict:
    """Cumulative public counters at the layer boundaries."""
    stats = db.stats()
    network = NetworkStats.capture(db.network)
    locks = [primary.engine.locks for primary in db.primaries]
    providers = [node.provider.stats for node in db.all_nodes()]
    return {
        "events": db.env.events_scheduled,
        "msgs": network.messages_delivered,
        "net_bytes": sum(network.bytes_by_link.values()),
        "wal_bytes": stats["wal_bytes"],
        "wire_bytes": stats["wire_bytes_shipped"],
        "gtm_requests": stats["gtm_requests"],
        "commit_wait_ns": sum(p.commit_wait_ns_total for p in providers),
        "commit_waits": sum(p.commit_waits for p in providers),
        "replica_reads": stats["replica_reads"],
        "primary_reads": stats["primary_reads"],
        "lock_conflicts": sum(t.deadlock_count + t.timeout_count
                              for t in locks),
        "cn_commits": stats["commits"],
        "cn_aborts": stats["aborts"],
        "rcp_lag_ns": stats["rcp_lag_ns"],  # a level, not a running total
    }


def _boundary_metrics(before: dict, after: dict, commits: int) -> dict:
    delta = {key: after[key] - before[key] for key in after}
    reads = delta["replica_reads"] + delta["primary_reads"]
    cn_ended = delta["cn_commits"] + delta["cn_aborts"]
    return {
        "sim.network.msgs_per_commit": delta["msgs"] / commits,
        "sim.network.bytes_per_commit": delta["net_bytes"] / commits,
        "storage.wal.bytes_per_commit": delta["wal_bytes"] / commits,
        "replication.wire_bytes_per_wal_byte":
            delta["wire_bytes"] / max(1, delta["wal_bytes"]),
        "txn.gtm_requests_per_commit": delta["gtm_requests"] / commits,
        "txn.commit_wait_ms_mean":
            delta["commit_wait_ns"] / max(1, delta["commit_waits"]) / 1e6,
        "ror.replica_read_share": delta["replica_reads"] / max(1, reads),
        "ror.rcp_lag_ms": after["rcp_lag_ns"] / 1e6,
        "storage.locks.conflicts_per_kcommit":
            1000 * delta["lock_conflicts"] / commits,
        "cluster.cn.abort_share": delta["cn_aborts"] / max(1, cn_ended),
    }


def _quiesce(db) -> None:
    """Advance sim time until no transaction is in flight: terminals stop
    issuing at the end of their call, stragglers finish or time out."""
    for _ in range(20):
        before = db.total_commits() + db.total_aborts()
        db.run_for(QUIESCE_STEP_S)
        if db.total_commits() + db.total_aborts() == before:
            return
    raise RuntimeError("cluster did not quiesce")


def tail_samples(committed: int) -> int:
    return max(1, round(committed * TAIL_SHARE))


def sim_fingerprint(committed: int, aborted: int, events: int,
                    sorted_latencies_ns: list[int]) -> str:
    digest = hashlib.sha256()
    digest.update(f"{committed},{aborted},{events};".encode())
    digest.update(",".join(map(str, sorted_latencies_ns)).encode())
    return digest.hexdigest()


def run_pass(scenario: Scenario, seed: int,
             profiler: cProfile.Profile | None = None) -> dict:
    """One pass; returns its raw numbers. With ``profiler``, only the timed
    call runs under it."""
    gc.collect()  # the previous pass's cluster is not this pass's garbage
    cpu_0 = time.process_time()
    db, workload = scenario.build(seed)
    run_workload(db, workload, terminals=scenario.terminals,
                 duration_s=scenario.warmup_s, setup=False)
    setup_cpu_s = time.process_time() - cpu_0

    before = _boundary_totals(db)
    with GcTimer() as gc_timer:
        wall_1, cpu_1 = time.perf_counter(), time.process_time()
        if profiler is not None:
            profiler.enable()
        result = run_workload(db, workload, terminals=scenario.terminals,
                              duration_s=scenario.timed_s, warmup_s=0,
                              setup=False)
        if profiler is not None:
            profiler.disable()
        cpu_s = time.process_time() - cpu_1
        wall_s = time.perf_counter() - wall_1
    after = _boundary_totals(db)

    stats = result.stats
    committed, aborted = stats.committed, stats.aborted
    latencies_ns = sorted(stats.latencies_ns)
    events = after["events"] - before["events"]
    _quiesce(db)
    failures = scenario.check(db, workload)
    if committed < 1000:
        failures.append(f"only {committed} commits in the timed call; the "
                        "workloads are sized for at least 1000")
    wall_over_cpu = wall_s / cpu_s
    return {
        "setup_cpu_s": setup_cpu_s,
        "cpu_s": cpu_s,
        "wall_over_cpu": wall_over_cpu,
        "preempted": wall_over_cpu > PREEMPTED_WALL_OVER_CPU,
        "gc_cpu_s": gc_timer.cpu_s,
        "gc_collections": gc_timer.collections,
        "committed": committed,
        "aborted": aborted,
        "events": events,
        "by_type": dict(sorted(stats.by_type.items())),
        "sim_fingerprint": sim_fingerprint(committed, aborted, events,
                                           latencies_ns),
        "sim_p50_ms": stats.latency_percentile_ms(50),
        "sim_p99_ms": stats.latency_percentile_ms(99),
        "failures": failures,
        "metrics": {
            "commits_per_cpu_s": committed / cpu_s,
            "events_per_commit": events / committed,
            "sim_tps": committed / scenario.timed_s,
            "sim_mean_ms": stats.mean_latency_ms,
            "sim_tail_ms": statistics.fmean(
                latencies_ns[-tail_samples(committed):]) / 1e6,
            "committed_share": committed / (committed + aborted),
        },
        "counters": _boundary_metrics(before, after, committed),
    }


def summarize(values: list[float], best=None) -> dict:
    """Median and quartiles (inclusive method, so three passes suffice).

    The reported ``value`` is the median, or with ``best`` (``min`` or
    ``max``) the best pass: another tenant of the host can only add CPU
    time to a pass, never take any away, so for a host timing the best pass
    is the one nearest to what the code costs.
    """
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"value": median if best is None else best(values),
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def nondeterminism(passes: list[dict]) -> list[str]:
    """Every pass of one seed must reproduce pass 0's simulated history."""
    first = passes[0]
    failures = []
    for index, other in enumerate(passes[1:], start=1):
        if other["sim_fingerprint"] != first["sim_fingerprint"]:
            failures.append(f"pass {index} sim_fingerprint differs from "
                            "pass 0: the simulation is not deterministic")
        for name in EXACT:
            if other["metrics"][name] != first["metrics"][name]:
                failures.append(f"pass {index} {name}="
                                f"{other['metrics'][name]!r} differs from "
                                f"pass 0 {first['metrics'][name]!r}")
    return failures


def end_to_end(passes: list[dict], import_cpu_s: float) -> dict:
    """The eight end-to-end metrics over the untraced passes."""
    out = {}
    for name in passes[0]["metrics"]:
        out[name] = summarize([p["metrics"][name] for p in passes],
                              best=max if name == "commits_per_cpu_s"
                              else None)
    out["sim_mean_ms"]["samples"] = passes[0]["committed"]
    out["sim_tail_ms"]["samples"] = tail_samples(passes[0]["committed"])
    out["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    out["setup_s"] = summarize([import_cpu_s + p["setup_cpu_s"]
                                for p in passes], best=min)
    for name, (unit, kind) in END_TO_END.items():
        out[name].update(unit=unit, kind=kind)
    return out

