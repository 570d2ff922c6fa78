"""Command-line experiment runner.

Usage::

    python -m repro.bench list
    python -m repro.bench fig6a
    python -m repro.bench fig6d --scale full
    python -m repro.bench all

Each experiment prints the same paper-style table the benchmark suite
records, without pytest in the way. Host performance (commits per
CPU-second, per-layer cost) is measured by ``benchmarks/perf/run.py``.

Scale selection: ``--scale`` wins when given; otherwise the
``REPRO_BENCH_SCALE`` environment variable (via :meth:`Scale.from_env`,
which rejects unknown values); otherwise quick.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import (
    Scale,
    ablation_log_shipping,
    ablation_ror,
    fig1a_motivation,
    fig6a_tpcc_geo,
    fig6b_tpcc_delay,
    fig6c_readonly_tpcc,
    fig6d_sysbench_point_select,
    migration_under_load,
)

EXPERIMENTS = {
    "fig1a": fig1a_motivation,
    "fig6a": fig6a_tpcc_geo,
    "fig6b": fig6b_tpcc_delay,
    "fig6c": fig6c_readonly_tpcc,
    "fig6d": fig6d_sysbench_point_select,
    "migration": migration_under_load,
    "shipping": ablation_log_shipping,
    "ror": ablation_ror,
}


def _resolve_scale(flag: str | None) -> Scale:
    """``--scale`` beats ``REPRO_BENCH_SCALE`` beats quick."""
    if flag is not None:
        return Scale.full() if flag == "full" else Scale.quick()
    return Scale.from_env()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce GaussDB-Global's evaluation figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list"],
                        help="which experiment to run")
    parser.add_argument("--scale", choices=["quick", "full"], default=None,
                        help="client scale; overrides REPRO_BENCH_SCALE "
                             "(default: the environment variable, else quick)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, fn in sorted(EXPERIMENTS.items()):
            doc_lines = (fn.__doc__ or "").strip().splitlines()
            summary = doc_lines[0] if doc_lines else fn.__name__
            print(f"{name:10s} {summary}")
        return 0

    scale = _resolve_scale(args.scale)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        # Host-side progress timing only — never feeds simulated state.
        started = time.time()  # simlint: ignore[SIM101]
        table = EXPERIMENTS[name](scale)
        print(table.render())
        print(f"   ({time.time() - started:.1f}s wall)\n")  # simlint: ignore[SIM101]
    return 0


if __name__ == "__main__":
    sys.exit(main())
