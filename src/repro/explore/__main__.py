"""``python -m repro.explore`` — coverage-guided simulation fuzzing.

Subcommands:

- ``run`` — explore for a trial budget from a seed: sample fault
  schedules, workload mixes, topologies and TM modes; keep trials that
  cover new ground; on the first failing trial, ddmin-shrink it and
  write a self-contained replay artifact. Exits nonzero with
  ``--fail-on-violation`` if anything failed.
- ``replay`` — re-run a reproducer artifact and verify it reproduces
  the identical violation digest (exit 0: reproduced; exit 2: the
  failure did not reproduce — the artifact is stale or the bug is
  fixed).

Examples::

    python -m repro.explore run --budget-trials 25 --seed 0 \\
        --out explore-out --fail-on-violation
    python -m repro.explore replay explore-out/reproducer-ab12cd34.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.explore.engine import ExploreConfig, ExploreEngine
from repro.explore.generator import GenParams
from repro.explore.shrink import replay_artifact


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExploreConfig(
        seed=args.seed,
        budget_trials=args.budget_trials,
        inject_bug=args.inject_bug,
        params=GenParams(topology=args.topology,
                         duration_s=args.duration,
                         max_faults=args.max_faults),
    )
    engine = ExploreEngine(config, echo=print)
    summary = engine.run()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        corpus_path = os.path.join(args.out, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            handle.write(engine.corpus.to_json())
        if engine.artifact is not None:
            digest = engine.artifact["violation_digest"][:8]
            artifact_path = os.path.join(args.out,
                                         f"reproducer-{digest}.json")
            with open(artifact_path, "w", encoding="utf-8") as handle:
                json.dump(engine.artifact, handle, sort_keys=True, indent=2)
            summary["artifact"] = artifact_path
            print(f"reproducer written to {artifact_path} — replay with: "
                  f"python -m repro.explore replay {artifact_path}")
        summary_path = os.path.join(args.out, "summary.json")
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {summary_path}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    if summary["ok"]:
        return 0
    return 1 if args.fail_on_violation else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.artifact, encoding="utf-8") as handle:
        artifact = json.load(handle)
    reproduced, result = replay_artifact(artifact)
    for violation in result.violations:
        kind = violation.get("kind") or violation.get("checker", "?")
        print(f"  [{kind}] {violation['message']}")
    if reproduced:
        print(f"REPRODUCED: violation digest "
              f"{result.violation_digest[:16]}... matches the artifact")
        return 0
    print(f"NOT REPRODUCED: artifact expects "
          f"{artifact['violation_digest'][:16]}..., replay produced "
          f"{result.violation_digest[:16]}... "
          f"(stale artifact, or the bug is fixed)")
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="coverage-guided simulation fuzzing")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="explore from a seed")
    run_parser.add_argument("--budget-trials", type=int, default=25)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--topology", default="three_city",
                            choices=("three_city", "two_region"))
    run_parser.add_argument("--duration", type=float, default=0.6,
                            help="per-trial workload seconds (sim time)")
    run_parser.add_argument("--max-faults", type=int, default=5)
    run_parser.add_argument("--out", default=None,
                            help="directory for corpus/summary/reproducers")
    run_parser.add_argument("--fail-on-violation", action="store_true")
    run_parser.add_argument("--inject-bug", default=None,
                            help="re-introduce a known bug (self-test)")
    run_parser.set_defaults(func=_cmd_run)

    replay_parser = sub.add_parser("replay",
                                   help="verify a reproducer artifact")
    replay_parser.add_argument("artifact")
    replay_parser.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
