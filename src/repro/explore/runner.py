"""Run one :class:`~repro.explore.spec.TrialSpec` in-process, fully judged.

This is the fuzzer's measurement instrument: build the cluster the spec
pins, arm every detector (history recorder, sanitizer, RCP probe), drive
the workload mix under the fault schedule, quiesce, settle, audit, then
pass the run through the offline checkers and the oracle layer. The
result carries the coverage signature (feedback for the engine) and a
canonical ``violation_digest`` — two runs of the same spec, in different
processes with different ``PYTHONHASHSEED`` values, produce identical
digests. That identity is what makes a replay artifact *proof*.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.chaos.schedule import Nemesis
from repro.check.checkers import run_all_checks
from repro.check.history import HistoryRecorder
from repro.check.runner import SETTLE_S, final_audit
from repro.explore.bugs import apply_bug
from repro.explore.coverage import trial_signature
from repro.explore.oracles import (
    RcpProbe,
    TrialViolation,
    check_frontier_coverage,
    check_progress,
    check_promotion_coverage,
    san_violations,
)
from repro.explore.spec import TrialSpec
from repro.san import Sanitizer
from repro.sim.units import seconds


@dataclass
class TrialResult:
    """Everything the engine (and a human triaging a finding) needs."""

    spec: TrialSpec
    ok: bool
    violations: list[dict] = field(default_factory=list)
    signature: tuple[str, ...] = ()
    committed: int = 0
    aborted: int = 0
    failovers: int = 0
    chaos_events: int = 0
    audit_status: str = "unknown"
    history_digest: str = ""
    violation_digest: str = ""


def violation_digest(violations: list[dict]) -> str:
    """Canonical hash of a violation list (sorted-key JSON, order-free)."""
    canonical = json.dumps(sorted(violations,
                                  key=lambda v: json.dumps(v, sort_keys=True)),
                           sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build_workload(spec: TrialSpec):
    from repro.workloads import (BankConfig, BankWorkload, MixedWorkload,
                                 SysbenchConfig, SysbenchWorkload, TpccConfig,
                                 TpccWorkload)
    bank_config = BankConfig(accounts=spec.accounts,
                             seed=spec.seed * 1_000_003 + 17)
    bank = BankWorkload(bank_config)
    if spec.fragments == ("bank",):
        return bank, bank_config
    fragments: list[tuple[object, float]] = [(bank, 0.7)]
    extra_weight = 0.3 / (len(spec.fragments) - 1)
    for name in spec.fragments:
        if name == "bank":
            continue
        if name == "sysbench":
            fragments.append((SysbenchWorkload(SysbenchConfig(
                tables=2, rows_per_table=40, seed=spec.seed + 5)),
                extra_weight))
        else:  # tpcc — tiny scale: trials are 0.65 sim-seconds long
            fragments.append((TpccWorkload(TpccConfig(
                warehouses=2, districts_per_warehouse=2,
                customers_per_district=5, items=20,
                initial_orders_per_district=2, delivery_districts=2,
                seed=spec.seed + 9)), extra_weight))
    return MixedWorkload(fragments, seed=spec.seed), bank_config


def run_trial(spec: TrialSpec, inject_bug: str | None = None) -> TrialResult:
    """One fully-armed experiment; never raises for in-sim failures."""
    from repro import (ClusterConfig, TxnMode, build_cluster, three_city,
                      two_region)
    from repro.workloads import run_workload

    topology = three_city() if spec.topology == "three_city" else two_region()
    mode = TxnMode.GTM if spec.mode == "gtm" else TxnMode.GCLOCK
    config = ClusterConfig.globaldb(topology, seed=spec.seed,
                                    auto_failover=True, trace_enabled=True,
                                    txn_mode=mode)
    db = build_cluster(config)
    apply_bug(db, inject_bug)

    recorder = HistoryRecorder(db.env).install()
    Sanitizer(db.env).install()
    run_ns = seconds(spec.warmup_s + spec.duration_s)
    probe = RcpProbe(db).start(run_ns)
    nemesis = Nemesis(db, spec.schedule).start()

    workload, bank_config = _build_workload(spec)
    oracle_violations: list[TrialViolation] = []
    committed = aborted = 0
    try:
        result = run_workload(db, workload, terminals=spec.terminals,
                              duration_s=spec.duration_s,
                              warmup_s=spec.warmup_s)
        committed, aborted = result.stats.committed, result.stats.aborted
    except Exception as exc:  # the unexpected-exception oracle
        oracle_violations.append(TrialViolation(
            "unexpected-exception", f"{type(exc).__name__}: {exc}"))
    healed = nemesis.quiesce()
    # The settle and audit phases run the sim further and can surface the
    # same class of unhandled in-sim exceptions; the harness must record
    # them as findings, never die on them.
    try:
        db.env.run_for(seconds(SETTLE_S))
        audit_status = final_audit(db, recorder, spec.accounts)
    except Exception as exc:
        oracle_violations.append(TrialViolation(
            "unexpected-exception",
            f"post-run: {type(exc).__name__}: {exc}"))
        audit_status = "crashed"

    history = recorder.history()
    report = run_all_checks(history, accounts=spec.accounts,
                            initial_balance=bank_config.initial_balance)

    oracle_violations.extend(check_progress(committed, aborted,
                                            spec.terminals))
    oracle_violations.extend(probe.violations())
    oracle_violations.extend(check_promotion_coverage(db))
    oracle_violations.extend(check_frontier_coverage(db))
    oracle_violations.extend(san_violations(db))

    violations = ([violation.to_dict() for violation in report.violations]
                  + [violation.to_dict() for violation in oracle_violations])
    signature = trial_signature(db, nemesis, run_ns, history,
                                committed, audit_status, healed)
    return TrialResult(
        spec=spec,
        ok=not violations,
        violations=violations,
        signature=signature,
        committed=committed,
        aborted=aborted,
        failovers=len(db.failover.events) if db.failover else 0,
        chaos_events=len(nemesis.events),
        audit_status=audit_status,
        history_digest=history.digest(),
        violation_digest=violation_digest(violations),
    )
