"""Experiment definitions — one per paper figure (§V) plus ablations.

Calibration: the simulated cluster's cost model is sized so closed-loop
clients saturate at a few thousand TPC-C transactions per second (the
regime the paper's 600-terminal experiments operate in). The read
benchmarks (Figs. 6c/6d) additionally use a CN statement cost calibrated
to the paper's 2013-era Xeon full-SQL path, which is what makes the
"up to 14x / 8.9x" ratios land: the ratio is (cluster capacity) x
(baseline latency) / terminals, so it is a property of the client/capacity
regime, not just of the protocols.
"""

from __future__ import annotations

import os
import typing
from dataclasses import replace

from repro.bench.harness import ExperimentTable, Scale
from repro.cluster import ClusterConfig, build_cluster, one_region, three_city
from repro.cluster.cn import CnConfig
from repro.cluster.topology import chain_topology
from repro.replication.shipper import ShipperConfig
from repro.sim.transport import (
    BBR,
    CUBIC,
    LZ4,
    NAGLE_OFF,
    NAGLE_ON,
    NO_COMPRESSION,
    TransportConfig,
)
from repro.sim.units import SECOND, ms, ns_to_ms, us
from repro.workloads import (
    SysbenchConfig,
    SysbenchWorkload,
    TpccConfig,
    TpccWorkload,
    run_workload,
)
from repro.workloads.tpcc import ReadOnlyTpccWorkload

#: Delay points swept in Figs. 6b-6d (the paper sweeps 0-100 ms).
DELAY_POINTS_MS = (0, 25, 50, 100)

#: CN calibration for the read benchmarks (see module docstring).
READ_BENCH_CN = CnConfig(statement_cost_ns=us(600), workers=5)


def _tracing() -> bool:
    """``REPRO_TRACE=1`` turns every experiment run into a traced run."""
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")


def _build(config: ClusterConfig):
    """Build a cluster, attaching observability when ``REPRO_TRACE`` is set.

    Observability is passive, so traced runs produce the same numbers as
    untraced ones (``tests/test_determinism.py``)."""
    if _tracing():
        config = replace(config, metrics_enabled=True, trace_enabled=True)
    return build_cluster(config)


def _attach_observability(table: ExperimentTable, db, result=None,
                          label: str = "") -> None:
    """Digest a traced run into ``table.extra_info`` (and optionally a
    Chrome trace file under ``REPRO_TRACE_DIR``). No-op unless tracing."""
    if not _tracing():
        return
    from repro.obs import RunReport

    report = RunReport.capture(db, result)
    digest = report.to_dict()
    if label:
        digest["label"] = label
    table.extra_info.setdefault("run_reports", []).append(digest)
    out_dir = os.environ.get("REPRO_TRACE_DIR", "")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        slug = "".join(ch if ch.isalnum() else "-"
                       for ch in f"{table.experiment} {label}".lower()).strip("-")
        db.env.tracer.write_chrome_trace(os.path.join(out_dir, f"{slug}.json"))


def _tpcc(scale: Scale, **overrides) -> TpccWorkload:
    return TpccWorkload(TpccConfig(warehouses=scale.warehouses, **overrides))


def _run_tpcc(db, scale: Scale, workload=None, cns=None):
    workload = workload or _tpcc(scale)
    return run_workload(db, workload, terminals=scale.terminals,
                        duration_s=scale.duration_s, warmup_s=scale.warmup_s,
                        cns=cns)


# ----------------------------------------------------------------------
# Fig. 1a — motivation: OLTP degrades with geographic spread
# ----------------------------------------------------------------------
def fig1a_motivation(scale: Scale | None = None) -> ExperimentTable:
    """Baseline GaussDB TPC-C throughput as the cluster spans ever more
    distant regions (Fig. 1a's downward curve)."""
    scale = scale or Scale.from_env()
    table = ExperimentTable(
        experiment="Fig 1a — OLTP vs geographic spread (baseline GaussDB)",
        paper_claim="throughput degrades steeply as regions grow more distant",
        columns=["spread", "hop_latency_ms", "tpm", "normalized"])
    reference_tpm = None
    for label, hop_ms in [("same rack", 0.05), ("metro", 5.0),
                          ("near cities", 25.0), ("distant cities", 55.0)]:
        topology = chain_topology(3, hop_latency_ns=ms(hop_ms))
        db = _build(ClusterConfig.baseline(topology))
        result = _run_tpcc(db, scale)
        if reference_tpm is None:
            reference_tpm = result.tpm or 1.0
        table.add_row(label, hop_ms, result.tpm, result.tpm / reference_tpm)
        _attach_observability(table, db, result, label=label)
    return table


# ----------------------------------------------------------------------
# Fig. 6a — TPC-C on One-Region vs Three-City
# ----------------------------------------------------------------------
def fig6a_tpcc_geo(scale: Scale | None = None) -> ExperimentTable:
    """The four-bar comparison: {baseline, GlobalDB} x {One-Region,
    Three-City}, 100% local transactions."""
    scale = scale or Scale.from_env()
    table = ExperimentTable(
        experiment="Fig 6a — TPC-C throughput, One-Region vs Three-City",
        paper_claim=("baseline Three-City ~1/3 of One-Region; GlobalDB "
                     "Three-City ~91% of One-Region; GlobalDB no penalty "
                     "on One-Region"),
        columns=["system", "cluster", "tpm", "vs baseline one-region"])
    configs = [
        ("baseline", "one-region", ClusterConfig.baseline(one_region())),
        ("globaldb", "one-region", ClusterConfig.globaldb(one_region())),
        ("baseline", "three-city", ClusterConfig.baseline(three_city())),
        ("globaldb", "three-city", ClusterConfig.globaldb(three_city())),
    ]
    reference = None
    for system, cluster_name, config in configs:
        db = _build(config)
        result = _run_tpcc(db, scale)
        if reference is None:
            reference = result.tpm or 1.0
        table.add_row(system, cluster_name, result.tpm, result.tpm / reference)
        _attach_observability(table, db, result,
                              label=f"{system} {cluster_name}")
    return table


# ----------------------------------------------------------------------
# Fig. 6b — TPC-C vs injected delay (node remote from the GTM)
# ----------------------------------------------------------------------
def fig6b_tpcc_delay(scale: Scale | None = None,
                     delays_ms: typing.Sequence[float] = DELAY_POINTS_MS
                     ) -> ExperimentTable:
    """Throughput of a CN *not* co-located with the GTM server as tc-style
    delay grows; baseline collapses, GlobalDB stays flat."""
    scale = scale or Scale.from_env()
    table = ExperimentTable(
        experiment="Fig 6b — TPC-C vs network delay (CN remote from GTM)",
        paper_claim="baseline loses up to ~90% at 100 ms; GlobalDB flat",
        columns=["delay_ms", "baseline_tpm", "globaldb_tpm",
                 "baseline_retained", "globaldb_retained"])
    series: dict[str, list[float]] = {"baseline": [], "globaldb": []}
    for delay in delays_ms:
        for system, config_fn in [("baseline", ClusterConfig.baseline),
                                  ("globaldb", ClusterConfig.globaldb)]:
            db = _build(config_fn(one_region()))
            workload = _tpcc(scale)
            workload.setup(db)
            db.inject_delay_all(ms(delay))
            db.run_for(0.3)
            remote_cns = [cn for cn in db.cns if cn.region != db.gtm.region]
            result = run_workload(db, workload, terminals=scale.terminals,
                                  duration_s=scale.duration_s,
                                  warmup_s=scale.warmup_s, setup=False,
                                  cns=remote_cns)
            series[system].append(result.tpm)
            _attach_observability(table, db, result,
                                  label=f"{system} {delay}ms")
    for index, delay in enumerate(delays_ms):
        base0 = series["baseline"][0] or 1.0
        glob0 = series["globaldb"][0] or 1.0
        table.add_row(delay, series["baseline"][index],
                      series["globaldb"][index],
                      series["baseline"][index] / base0,
                      series["globaldb"][index] / glob0)
    return table


# ----------------------------------------------------------------------
# Fig. 6c — read-only TPC-C (Order-Status + Stock-Level, 50% multi-shard)
# ----------------------------------------------------------------------
def fig6c_readonly_tpcc(scale: Scale | None = None,
                        delays_ms: typing.Sequence[float] = DELAY_POINTS_MS
                        ) -> ExperimentTable:
    """Read-only TPC-C (Order-Status + Stock-Level, 50% multi-shard) under
    a delay sweep: GlobalDB's replica reads vs the baseline's remote
    primary reads (paper: up to 14x)."""
    scale = scale or Scale.from_env()
    # The paper drives 600 client terminals; the ratio depends on the
    # client/capacity regime, so pin the client count to the paper's.
    terminals = max(600, scale.terminals)
    table = ExperimentTable(
        experiment="Fig 6c — read-only TPC-C vs network delay",
        paper_claim="GlobalDB up to 14x baseline read throughput",
        columns=["delay_ms", "baseline_tps", "globaldb_tps", "speedup"])
    for delay in delays_ms:
        throughput = {}
        for system, config_fn in [("baseline", ClusterConfig.baseline),
                                  ("globaldb", ClusterConfig.globaldb)]:
            config = config_fn(one_region(), cn_config=READ_BENCH_CN)
            db = _build(config)
            workload = ReadOnlyTpccWorkload(
                TpccConfig(warehouses=scale.warehouses), multi_shard_pct=0.5)
            workload.setup(db)
            db.inject_delay_all(ms(delay))
            db.run_for(0.3)
            result = run_workload(db, workload, terminals=terminals,
                                  duration_s=scale.duration_s,
                                  warmup_s=scale.warmup_s, setup=False)
            throughput[system] = result.throughput_per_s
            _attach_observability(table, db, result,
                                  label=f"{system} {delay}ms")
        table.add_row(delay, throughput["baseline"], throughput["globaldb"],
                      throughput["globaldb"] / max(throughput["baseline"], 0.01))
    return table


# ----------------------------------------------------------------------
# Fig. 6d — Sysbench point select (2/3 remote tuples)
# ----------------------------------------------------------------------
def fig6d_sysbench_point_select(scale: Scale | None = None,
                                delays_ms: typing.Sequence[float] = DELAY_POINTS_MS
                                ) -> ExperimentTable:
    """Sysbench point select with 2/3 remote tuples under a delay sweep
    (paper: up to 8.9x)."""
    scale = scale or Scale.from_env()
    # The paper drives 600 client terminals; the ratio depends on the
    # client/capacity regime, so pin the client count to the paper's.
    terminals = max(600, scale.terminals)
    table = ExperimentTable(
        experiment="Fig 6d — Sysbench point select vs network delay",
        paper_claim="GlobalDB up to 8.9x baseline read throughput",
        columns=["delay_ms", "baseline_tps", "globaldb_tps", "speedup"])
    for delay in delays_ms:
        throughput = {}
        for system, config_fn in [("baseline", ClusterConfig.baseline),
                                  ("globaldb", ClusterConfig.globaldb)]:
            config = config_fn(one_region(), cn_config=READ_BENCH_CN)
            db = _build(config)
            workload = SysbenchWorkload(SysbenchConfig(
                tables=8, rows_per_table=250, remote_pct=2 / 3))
            workload.setup(db)
            db.inject_delay_all(ms(delay))
            db.run_for(0.3)
            result = run_workload(db, workload, terminals=terminals,
                                  duration_s=scale.duration_s,
                                  warmup_s=scale.warmup_s, setup=False)
            throughput[system] = result.throughput_per_s
            _attach_observability(table, db, result,
                                  label=f"{system} {delay}ms")
        table.add_row(delay, throughput["baseline"], throughput["globaldb"],
                      throughput["globaldb"] / max(throughput["baseline"], 0.01))
    return table


# ----------------------------------------------------------------------
# §III-A — zero-downtime migration under load (Figs. 2-3)
# ----------------------------------------------------------------------
def migration_under_load(scale: Scale | None = None,
                         window_ms: float = 100.0) -> ExperimentTable:
    """TPC-C keeps running while the cluster migrates GTM -> GClock and
    back; per-window commit counts show no downtime window."""
    scale = scale or Scale.from_env()
    table = ExperimentTable(
        experiment="Migration — TPC-C commits per 100 ms window across "
                    "GTM->GClock->GTM transitions",
        paper_claim="zero downtime; only stale GTM transactions abort at "
                    "the GClock cutover",
        columns=["window_start_ms", "commits", "phase"])
    db = _build(ClusterConfig.baseline(one_region()))
    workload = _tpcc(scale)
    workload.setup(db)
    env = db.env
    window_ns = ms(window_ms)
    commits_by_window: dict[int, int] = {}
    phase_marks: list[tuple[int, str]] = []

    from repro.errors import TransactionAborted

    def terminal(terminal_id):
        cn = db.cns[terminal_id % len(db.cns)]
        while env.now < stop_at:
            try:
                yield from workload.transaction(cn, terminal_id)
                window = env.now // window_ns
                commits_by_window[window] = commits_by_window.get(window, 0) + 1
            except TransactionAborted:
                pass

    start = env.now
    stop_at = start + round(scale.duration_s * 2 * SECOND)
    for terminal_id in range(scale.terminals // 2):
        env.process(terminal(terminal_id))

    def conductor():
        yield env.timeout(round(scale.duration_s * 0.5 * SECOND))
        phase_marks.append((env.now, "begin gtm->gclock"))
        report = yield from db.migration.to_gclock()
        phase_marks.append((env.now, f"gclock (dwell {report.dwell_ns}ns)"))
        yield env.timeout(round(scale.duration_s * 0.5 * SECOND))
        phase_marks.append((env.now, "begin gclock->gtm"))
        yield from db.migration.to_gtm()
        phase_marks.append((env.now, "gtm"))

    env.process(conductor())
    env.run(until=stop_at)
    aborts_on_cutover = sum(cn.provider.stats.aborts_on_cutover
                            for cn in db.cns)
    aborts_on_cutover += sum(p.provider.stats.aborts_on_cutover
                             for p in db.primaries)
    marks = list(phase_marks)
    for window in sorted(commits_by_window):
        window_start = window * window_ns
        phase = ""
        for when, label in marks:
            if window_start <= when < window_start + window_ns:
                phase = label
        table.add_row(round(ns_to_ms(window_start)),
                      commits_by_window[window], phase)
    zero_windows = sum(1 for count in commits_by_window.values() if count == 0)
    table.note(f"windows with zero commits: {zero_windows}")
    table.note(f"GTM transactions aborted at GClock cutover: {aborts_on_cutover}")
    table.note(f"GTM rejected commits: {db.gtm.rejected_commits}")
    _attach_observability(table, db, label="migration under load")
    return table


# ----------------------------------------------------------------------
# Ablation — log-shipping optimisations (§V-A narrative)
# ----------------------------------------------------------------------
def ablation_log_shipping(scale: Scale | None = None) -> ExperimentTable:
    """Three-City TPC-C under *synchronous* replication with each transport
    optimisation toggled: this is where LZ4/BBR/Nagle-off earn the
    'throughput back to 91%' claim."""
    scale = scale or Scale.from_env()
    table = ExperimentTable(
        experiment="Ablation — log shipping transport (Three-City, sync "
                    "replication)",
        paper_claim="LZ4 + BBR + Nagle-off close most of the Three-City gap",
        columns=["transport", "tpm", "mean_latency_ms", "wire_MB",
                 "compression"])
    variants = [
        ("stock (none+cubic+nagle)", TransportConfig.baseline()),
        ("+lz4", TransportConfig(LZ4, CUBIC, NAGLE_ON)),
        ("+bbr", TransportConfig(NO_COMPRESSION, BBR, NAGLE_ON)),
        ("+nagle-off", TransportConfig(NO_COMPRESSION, CUBIC, NAGLE_OFF)),
        ("optimized (lz4+bbr+off)", TransportConfig.optimized()),
    ]
    for label, transport in variants:
        config = ClusterConfig.baseline(
            three_city(), shipper=ShipperConfig(transport=transport))
        db = _build(config)
        result = _run_tpcc(db, scale)
        wire_mb = sum(shipper.wire_bytes_total for shipper in db.shippers) / 1e6
        ratios = [shipper.compression_ratio_achieved()
                  for shipper in db.shippers if shipper.wire_bytes_total]
        ratio = sum(ratios) / len(ratios) if ratios else 1.0
        table.add_row(label, result.tpm, result.stats.mean_latency_ms,
                      wire_mb, ratio)
        _attach_observability(table, db, result, label=label)
    return table


# ----------------------------------------------------------------------
# Ablation — ROR machinery (§IV)
# ----------------------------------------------------------------------
def ablation_ror(scale: Scale | None = None) -> ExperimentTable:
    """Two sub-ablations of the §IV machinery on Three-City:

    - *routing*: read-only TPC-C with skyline+replicas vs. all-primaries
      (where the read throughput comes from);
    - *freshness*: full (write-heavy) TPC-C with parallel vs. throttled
      serial replay (how replay speed bounds the RCP's lag behind the
      primaries' frontier).
    """
    scale = scale or Scale.from_env()
    table = ExperimentTable(
        experiment="Ablation — reads-on-replica machinery (Three-City)",
        paper_claim="replica reads + skyline routing dominate primary reads; "
                    "parallel replay keeps replicas (and the RCP) fresh",
        columns=["variant", "workload", "throughput_per_s", "replica_reads",
                 "primary_reads", "rcp_lag_ms"])

    def measure(db, workload):
        result = run_workload(db, workload, terminals=scale.terminals,
                              duration_s=scale.duration_s,
                              warmup_s=scale.warmup_s)
        ror_reads = sum(cn.ror_reads for cn in db.cns)
        fallback = sum(cn.primary_fallback_reads for cn in db.cns)
        # 0 on the no-ROR row: no collector runs there, so there is no RCP.
        return (result, ror_reads, fallback,
                ns_to_ms(db.stats()["rcp_lag_ns"]))

    # --- routing sub-ablation (read-only workload) ---------------------
    for label, ror in [("skyline + replicas", True),
                       ("primaries only (no ROR)", False)]:
        db = _build(ClusterConfig.globaldb(three_city(), ror_enabled=ror))
        workload = ReadOnlyTpccWorkload(
            TpccConfig(warehouses=scale.warehouses), multi_shard_pct=0.5)
        result, ror_reads, fallback, lag = measure(db, workload)
        table.add_row(label, "read-only tpcc", result.throughput_per_s,
                      ror_reads, fallback, lag)
        _attach_observability(table, db, result, label=label)

    # --- freshness sub-ablation (write-heavy workload) ------------------
    for label, apply_ns, parallelism in [
            ("parallel replay (x8)", us(2), 8),
            ("throttled serial replay", us(150), 1)]:
        db = _build(ClusterConfig.globaldb(three_city()))
        for replica_list in db.replicas.values():
            for replica in replica_list:
                replica.replayer.apply_ns_per_record = apply_ns
                replica.replayer.parallelism = parallelism
        workload = _tpcc(scale)
        result, ror_reads, fallback, lag = measure(db, workload)
        table.add_row(label, "full tpcc", result.throughput_per_s,
                      ror_reads, fallback, lag)
        _attach_observability(table, db, result, label=label)
    table.note("primary_reads on the read-only rows are mostly skyline "
               "choices of the (local, freshest) primary, not failures")
    return table
