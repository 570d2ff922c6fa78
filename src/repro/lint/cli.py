"""The simlint command line: ``python -m repro.lint``.

Modes:

- **Static** (default): lint the given paths (default ``src``) with every
  registered rule, honouring pragmas. Exit 1 on any finding.
- **Dynamic** (``--determinism``): run the hash-seed perturbation harness
  (:mod:`repro.lint.determinism`). Exit 1 when trace digests diverge.
- **simsan** (``san`` subcommand): the combined hazard gate — static
  interprocedural scan (SIM107–SIM110 and friends) plus a smoke
  simulation under the :mod:`repro.san` runtime sanitizer. Exit 1 on any
  static or runtime finding (see :mod:`repro.san.cli`).

All three gates run in CI; a change must pass all of them to land.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.lint.rules import (
    REGISTRY,
    default_rules,
    iter_python_files,
    lint_paths,
)
from repro.lint.reporters import render_json, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & sim-safety static analysis "
                    "for the simulator, plus a hash-seed perturbation "
                    "harness (--determinism).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="CODES", default="",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    parser.add_argument("--determinism", action="store_true",
                        help="run the PYTHONHASHSEED perturbation harness "
                             "instead of static analysis")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of distinct hash seeds for "
                             "--determinism (default: 3)")
    parser.add_argument("--duration", type=float, default=None,
                        help="sim-seconds per --determinism child run")
    parser.add_argument("--chaos", action="store_true",
                        help="with --determinism: perturb the traced chaos "
                             "smoke (bank under the default nemesis) and "
                             "require stable chaos/history digests too")
    return parser


def _cmd_list_rules() -> int:
    rules = default_rules()
    width = max(len(rule.code) for rule in rules)
    for rule in rules:
        print(f"{rule.code.ljust(width)}  {rule.name}: {rule.description}")
    return EXIT_CLEAN


def _cmd_determinism(args: argparse.Namespace) -> int:
    from repro.lint.determinism import (
        DEFAULT_CHAOS_DURATION_S,
        DEFAULT_DURATION_S,
        run_perturbation,
    )

    if args.seeds < 2:
        print("error: --seeds must be >= 2 (one run proves nothing)",
              file=sys.stderr)
        return EXIT_ERROR
    default_duration = DEFAULT_CHAOS_DURATION_S if args.chaos \
        else DEFAULT_DURATION_S
    duration = args.duration if args.duration is not None \
        else default_duration
    flavor = "chaos smoke" if args.chaos else "smoke"
    print(f"determinism harness ({flavor}): {args.seeds} subprocess runs, "
          f"{duration} sim-seconds each, distinct PYTHONHASHSEED values")
    result = run_perturbation(seeds=args.seeds, duration_s=duration,
                              echo=print, chaos=args.chaos)
    print(result.render())
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


def _cmd_lint(args: argparse.Namespace) -> int:
    select = [code.strip().upper() for code in args.select.split(",")
              if code.strip()] if args.select else None
    ignore = [code.strip().upper() for code in args.ignore.split(",")
              if code.strip()]
    try:
        rules = default_rules(select=select, ignore=ignore)
    except ValueError as exc:
        print(f"error: {exc} (known: {', '.join(sorted(REGISTRY))})",
              file=sys.stderr)
        return EXIT_ERROR

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_ERROR

    findings = lint_paths(paths, rules=rules)
    files_checked = sum(1 for _ in iter_python_files(paths))
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings, files_checked))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "san":
        # ``python -m repro.lint san``: the combined simsan gate — static
        # interprocedural scan plus a sanitized smoke simulation.
        from repro.san.cli import main as san_main
        return san_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _cmd_list_rules()
    if args.determinism:
        return _cmd_determinism(args)
    return _cmd_lint(args)
