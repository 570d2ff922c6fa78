#!/usr/bin/env python3
"""The repository benchmark: five workloads, eight end-to-end metrics and a
per-layer ledger, measured from outside through the public API.

    python3 benchmarks/perf/run.py [--seed N] [--passes K] [--workload W]
                                   [--trace] [--out FILE] [--ledger FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json

Without ``--workload`` every workload runs in its own subprocess, one after
the other (so ``peak_rss_mb`` is per workload), and the report covers all
five. With ``--workload`` this process runs that workload itself and ends
its output with one JSON line: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). ``--seconds S`` sizes a run by time instead of ``--passes``:
untraced passes repeat until their timed calls add up to S CPU-seconds (at
least three passes); a traced run makes one untraced and one traced pass
and shortens the microbenchmark loops. README.md explains every number.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

_import_cpu_0 = time.process_time()
import repro  # noqa: E402,F401  (timed: set-up pays for the import)
import layers  # noqa: E402
import measure  # noqa: E402
import micro  # noqa: E402
import report  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402
IMPORT_CPU_S = time.process_time() - _import_cpu_0

DEFAULT_PASSES = 4
MIN_PASSES = 3
MAX_PASSES = 8


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def commit_id() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(seed: int) -> dict:
    return {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit_id()}


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload_record(name: str, seed: int, passes: int | None,
                        seconds: float | None, trace: bool) -> dict:
    scenario = SCENARIOS[name]
    if passes is None and seconds is None:
        passes = DEFAULT_PASSES
    if trace and seconds is not None:
        passes = 1

    def enough(done: list) -> bool:
        if passes is not None:
            return len(done) >= passes
        return (len(done) >= MAX_PASSES or len(done) >= MIN_PASSES
                and sum(p["cpu_s"] for p in done) >= seconds)

    untraced = []
    while not enough(untraced):
        untraced.append(measure.run_pass(scenario, seed))
    end_to_end = measure.end_to_end(untraced, IMPORT_CPU_S)  # before tracing

    def median(values: list) -> float:
        return measure.summarize(values)["value"]

    first = untraced[0]
    per_layer = {
        "host.gc_share": {
            "value": median([p["gc_cpu_s"] / p["cpu_s"] for p in untraced]),
            "unit": "share"},
        "host.gc_collections_per_kcommit": {
            "value": 1000 * first["gc_collections"] / first["committed"],
            "unit": "count"},
    }
    for metric, value in first["counters"].items():
        per_layer[metric] = {"value": value,
                             "unit": measure.COUNTER_UNITS[metric]}
    all_passes = list(untraced)
    if trace:
        profiler = cProfile.Profile()
        traced = measure.run_pass(scenario, seed, profiler)
        all_passes.append(traced)
        untraced_cpu_s = median([p["cpu_s"] for p in untraced])
        per_layer["trace.overhead_pct"] = {
            "value": 100 * (traced["cpu_s"] / untraced_cpu_s - 1),
            "unit": "%"}
        per_layer.update(layers.layer_metrics(profiler, traced["committed"]))

    failures = [f for p in all_passes for f in p["failures"]]
    failures += measure.nondeterminism(all_passes)
    return {
        "scenario": {"why": scenario.why, "terminals": scenario.terminals,
                     "warmup_s": scenario.warmup_s,
                     "timed_s": scenario.timed_s,
                     "constants": scenario.constants},
        "passes": [{key: p[key] for key in (
            "cpu_s", "setup_cpu_s", "wall_over_cpu", "preempted",
            "gc_cpu_s", "gc_collections", "committed", "aborted", "events",
            "by_type")} for p in untraced],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "sim_fingerprint": first["sim_fingerprint"],
        "sim_percentiles": {"p50_ms": first["sim_p50_ms"],
                            "p99_ms": first["sim_p99_ms"],
                            "samples": first["committed"]},
        "attempted": sum(p["committed"] + p["aborted"] for p in untraced),
        "failed": sum(p["aborted"] for p in untraced),
        "correct": not failures,
        "failures": failures,
    }


def micro_loop_s(seconds: float | None) -> float:
    if seconds is None:
        return micro.DEFAULT_LOOP_S
    return min(micro.DEFAULT_LOOP_S, seconds / 400)


def final_line(workload: dict, micro_results: dict | None, trace: bool) -> str:
    if trace:
        metrics = {**workload["per_layer"], **micro_results}
    else:
        metrics = workload["end_to_end"]
    return json.dumps({
        "correct": workload["correct"],
        "attempted": workload["attempted"],
        "failed": workload["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


# ----------------------------------------------------------------------
# Checks against BENCHMARK.json
# ----------------------------------------------------------------------
def spec_mismatch(spec: dict, record: dict) -> list[str]:
    """BENCHMARK.json must name exactly what the benchmark reports."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(SCENARIOS):
        problems.append("workloads differ from BENCHMARK.json")
    for workload in record["workloads"].values():
        reported = set(workload["end_to_end"])
        if reported != {m["name"] for m in spec["end_to_end"]}:
            problems.append("end_to_end metrics differ from BENCHMARK.json")
        if record["micro"] is not None:
            reported = set(workload["per_layer"]) | set(record["micro"])
            if reported != {m["name"] for m in spec["per_layer"]}:
                problems.append("per_layer metrics differ from BENCHMARK.json")
    return sorted(set(problems))


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int,
                        help=f"untraced passes (default {DEFAULT_PASSES}, "
                             f"at least {MIN_PASSES})")
    parser.add_argument("--seconds", type=float,
                        help="size the run by CPU-seconds of timed calls")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the traced pass and the "
                                             "microbenchmarks")
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--ledger", help="append the record as one JSON line")
    parser.add_argument("--record", action="store_true",
                        help=argparse.SUPPRESS)  # child: print the record only
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.compare:
        records = []
        for path in args.compare:
            with open(path) as handle:
                records.append(json.load(handle))
        table, clean = report.compare(records[0], records[1], spec)
        print(table)
        return 0 if clean else 1

    if args.passes is not None and args.passes < MIN_PASSES:
        parser.error(f"--passes must be at least {MIN_PASSES}")
    trace = bool(args.trace)
    record = {**environment(args.seed), "workloads": {}, "micro": None}

    if args.workload:
        record["workloads"][args.workload] = run_workload_record(
            args.workload, args.seed, args.passes, args.seconds, trace)
    else:
        for name in SCENARIOS:
            command = [sys.executable, os.path.abspath(__file__), "--record",
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(args.trace)]
            if args.passes is not None:
                command += ["--passes", str(args.passes)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if child.returncode != 0:
                print(f"{name}: subprocess exited with {child.returncode}",
                      file=sys.stderr)
                return 1
            record["workloads"].update(json.loads(child.stdout)["workloads"])

    if args.record:  # a child: the parent runs the microbenchmarks, once
        print(json.dumps(record))
        return 0
    if trace:
        record["micro"] = micro.run_all(micro_loop_s(args.seconds))
    problems = spec_mismatch(spec, record)
    print(report.render(record))
    for path, mode, text in ((args.out, "w", json.dumps(record, indent=1)),
                             (args.ledger, "a", json.dumps(record))):
        if path:
            with open(path, mode) as handle:
                handle.write(text + "\n")
    for problem in problems:
        print(f"BENCHMARK.json: {problem}", file=sys.stderr)
    correct = all(w["correct"] for w in record["workloads"].values())
    if args.workload:
        print(final_line(record["workloads"][args.workload], record["micro"],
                         trace))
    return 0 if correct and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
