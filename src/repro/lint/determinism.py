"""Hash-seed perturbation harness: the dynamic half of simlint.

Static rules (SIM101–SIM106) catch the *patterns* that break determinism;
this harness catches the *fact*. It runs the same short traced simulation
in N fresh subprocesses, each under a distinct ``PYTHONHASHSEED``, and
compares the ``repro.obs`` trace digests. Any hash-order dependence left
in a scheduling path — a set iterated before an event is enqueued, a dict
keyed by object identity — shows up as diverging digests, exactly the bug
class PR 1 found in ``storage/locks.py`` by hand-diffing traces.

Run it as::

    python -m repro.lint --determinism --seeds 3

Each child executes ``python -m repro.lint.determinism`` (this module),
which prints a one-line JSON summary of its run; the parent compares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

#: Defaults tuned so three child runs finish in well under a CI minute.
DEFAULT_SEEDS = 3
DEFAULT_DURATION_S = 0.2
DEFAULT_WARMUP_S = 0.05
#: Chaos smoke runs are longer so the default nemesis's partition,
#: migration-under-fire and crash windows all fire inside the run.
DEFAULT_CHAOS_DURATION_S = 1.0
CHILD_TIMEOUT_S = 600


def smoke_run(duration_s: float = DEFAULT_DURATION_S,
              warmup_s: float = DEFAULT_WARMUP_S,
              seed: int = 0, workload_seed: int = 42,
              telemetry: bool = False, sanitize: bool = False) -> dict:
    """One small traced One-Region TPC-C run, summarised for comparison.

    The digest covers every recorded span (ordering, timing, payloads);
    the scalar fields make a mismatch report human-readable.

    ``telemetry=True`` additionally enables the windowed time-series and
    default SLO monitors and reports the monitor's alert-stream digest —
    proving the *telemetry pipeline itself* is hash-order independent.
    (The pinned smoke digest uses ``telemetry=False``, the
    pre-telemetry configuration, so the recording stays comparable.)

    ``sanitize=True`` installs the :mod:`repro.san` runtime sanitizer and
    reports its finding count and details; sanitizer findings are emitted
    into the trace, so the digest also proves the *report itself* is
    hash-seed stable."""
    from repro import ClusterConfig, build_cluster, one_region
    from repro.workloads import TpccConfig, TpccWorkload, run_workload

    db = build_cluster(ClusterConfig.globaldb(
        one_region(), seed=seed, metrics_enabled=False, trace_enabled=True,
        timeseries_enabled=telemetry))
    if sanitize:
        from repro.san import Sanitizer
        Sanitizer(db.env).install()
    workload = TpccWorkload(TpccConfig(
        warehouses=2, districts_per_warehouse=2, customers_per_district=10,
        items=20, initial_orders_per_district=5, seed=workload_seed))
    result = run_workload(db, workload, terminals=4, duration_s=duration_s,
                          warmup_s=warmup_s)
    summary = {
        "digest": db.env.tracer.digest(),
        "spans": len(db.env.tracer.spans),
        "committed": result.stats.committed,
        "aborted": result.stats.aborted,
        "sim_now_ns": db.env.now,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "<unset>"),
    }
    if telemetry:
        db.env.series.catch_up()
        summary["alerts"] = len(db.env.monitor.alerts)
        summary["alerts_digest"] = db.env.monitor.digest()
        summary["series"] = len(db.env.series.all_series())
    if sanitize:
        summary["san_findings"] = db.env.san.report.to_dicts()
        summary["san_messages_checked"] = db.env.san.messages_checked
    return summary


def chaos_smoke_run(duration_s: float = DEFAULT_CHAOS_DURATION_S,
                    warmup_s: float = DEFAULT_WARMUP_S,
                    seed: int = 0) -> dict:
    """One traced chaos experiment (three-city bank under the default
    nemesis, see :mod:`repro.check.runner`), summarised for comparison.

    Three digests must be hash-seed stable: the trace (every span the run
    emitted, chaos instants included), the nemesis event log, and the
    recorded operation history the consistency checkers consume — so the
    sweep proves fault injection, healing, *and* the Jepsen history are
    all free of hash-order dependence."""
    from repro.check.runner import run_seed

    run = run_seed(seed, nemesis="default", duration_s=duration_s,
                   warmup_s=warmup_s, trace=True)
    return {
        "digest": run["trace_digest"],
        "chaos_digest": run["chaos_digest"],
        "history_digest": run["history_digest"],
        "chaos_events": run["chaos_events"],
        "committed": run["committed"],
        "aborted": run["aborted"],
        "violations": len(run["violations"]),
        "spans": run["trace_spans"],
        "hash_seed": os.environ.get("PYTHONHASHSEED", "<unset>"),
    }


@dataclass
class DeterminismResult:
    """Outcome of one perturbation sweep."""

    ok: bool
    runs: list[dict]
    errors: list[str]

    def render(self) -> str:
        lines = []
        for run in self.runs:
            lines.append(
                f"  PYTHONHASHSEED={run['hash_seed']:<6} "
                f"digest={run['digest'][:16]}… spans={run['spans']} "
                f"committed={run['committed']} aborted={run['aborted']}")
        lines.extend(f"  ERROR: {error}" for error in self.errors)
        digests = {run["digest"] for run in self.runs}
        alert_digests = {run["alerts_digest"] for run in self.runs
                         if "alerts_digest" in run}
        chaos_digests = {run["chaos_digest"] for run in self.runs
                         if "chaos_digest" in run}
        history_digests = {run["history_digest"] for run in self.runs
                           if "history_digest" in run}
        if self.ok:
            suffix = ""
            if alert_digests:
                alerts = self.runs[0].get("alerts", 0)
                suffix = (f"; alert stream stable "
                          f"({alerts} alert(s), 1 digest)")
            if chaos_digests:
                events = self.runs[0].get("chaos_events", 0)
                suffix += (f"; chaos + history stable "
                           f"({events} fault event(s), 1 digest each)")
            lines.append(f"determinism PASS: {len(self.runs)} runs under "
                         f"distinct hash seeds, 1 digest{suffix}")
        else:
            if len(alert_digests) > 1:
                lines.append(f"  monitor alert streams diverged: "
                             f"{len(alert_digests)} distinct digests")
            if len(chaos_digests) > 1:
                lines.append(f"  nemesis event logs diverged: "
                             f"{len(chaos_digests)} distinct digests")
            if len(history_digests) > 1:
                lines.append(f"  recorded histories diverged: "
                             f"{len(history_digests)} distinct digests")
            lines.append(f"determinism FAIL: {len(digests)} distinct "
                         f"digest(s) across {len(self.runs)} run(s) — "
                         f"hash-order dependence in a scheduling path")
        return "\n".join(lines)


def _child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # Make sure the child resolves the same `repro` package as the parent,
    # whatever PYTHONPATH the parent was launched with.
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    paths = [src_dir] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_perturbation(seeds: int = DEFAULT_SEEDS,
                     duration_s: float = DEFAULT_DURATION_S,
                     warmup_s: float = DEFAULT_WARMUP_S,
                     echo=None, telemetry: bool = True,
                     sanitize: bool = False,
                     chaos: bool = False) -> DeterminismResult:
    """Run the smoke sim under ``seeds`` distinct hash seeds and compare.

    Hash seeds are spread out (1, 1001, 2001, ...) rather than 0..N-1
    because ``PYTHONHASHSEED=0`` *disables* randomization — a run that only
    compared seed 0 against itself would prove nothing.

    With ``telemetry`` (the default) the children also run the windowed
    time-series + default monitors and the sweep additionally requires the
    monitor alert streams to share one digest.

    With ``chaos`` the children instead run the traced chaos smoke
    (:func:`chaos_smoke_run`) and the sweep additionally requires the
    nemesis event log and the recorded Jepsen history to each share one
    digest across hash seeds.
    """
    runs: list[dict] = []
    errors: list[str] = []
    for index in range(seeds):
        hash_seed = 1 + index * 1000
        command = [sys.executable, "-m", "repro.lint.determinism",
                   "--duration", str(duration_s), "--warmup", str(warmup_s)]
        if chaos:
            command.append("--chaos")
        elif telemetry:
            command.append("--telemetry")
        if sanitize and not chaos:
            command.append("--sanitize")
        try:
            proc = subprocess.run(
                command, env=_child_env(hash_seed), capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            errors.append(f"child (hash seed {hash_seed}) timed out after "
                          f"{CHILD_TIMEOUT_S}s")
            continue
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["<no stderr>"]
            errors.append(f"child (hash seed {hash_seed}) exited "
                          f"{proc.returncode}: {tail[0]}")
            continue
        try:
            run = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            errors.append(f"child (hash seed {hash_seed}) printed no JSON "
                          f"summary")
            continue
        runs.append(run)
        if echo is not None:
            echo(f"  run {index + 1}/{seeds} (PYTHONHASHSEED={hash_seed}): "
                 f"digest {run['digest'][:16]}…")
    digests = {run["digest"] for run in runs}
    alert_digests = {run["alerts_digest"] for run in runs
                     if "alerts_digest" in run}
    chaos_digests = {run["chaos_digest"] for run in runs
                     if "chaos_digest" in run}
    history_digests = {run["history_digest"] for run in runs
                       if "history_digest" in run}
    ok = (not errors and len(runs) == seeds and len(digests) == 1
          and len(alert_digests) <= 1 and len(chaos_digests) <= 1
          and len(history_digests) <= 1)
    return DeterminismResult(ok=ok, runs=runs, errors=errors)


def main(argv: list[str] | None = None) -> int:
    """Child entry point: run one smoke sim, print its JSON summary."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.determinism",
        description="One traced smoke run (child of --determinism).")
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION_S)
    parser.add_argument("--warmup", type=float, default=DEFAULT_WARMUP_S)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload-seed", type=int, default=42)
    parser.add_argument("--telemetry", action="store_true",
                        help="also run time-series + monitors and report "
                             "the alert-stream digest")
    parser.add_argument("--sanitize", action="store_true",
                        help="install the repro.san runtime sanitizer and "
                             "report its findings")
    parser.add_argument("--chaos", action="store_true",
                        help="run the traced chaos smoke (bank workload "
                             "under the default nemesis) instead of the "
                             "TPC-C smoke")
    args = parser.parse_args(argv)
    if args.chaos:
        summary = chaos_smoke_run(duration_s=args.duration,
                                  warmup_s=args.warmup, seed=args.seed)
    else:
        summary = smoke_run(duration_s=args.duration, warmup_s=args.warmup,
                            seed=args.seed, workload_seed=args.workload_seed,
                            telemetry=args.telemetry, sanitize=args.sanitize)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
