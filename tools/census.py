#!/usr/bin/env python3
"""Call census of ``src/``: which functions the drivers run, which only the
tier-1 tests run, and which nothing runs.

    python3 tools/census.py > census.txt

The script copies the working tree to a temporary directory (the paper
benches rewrite ``benchmarks/results/``), then runs every driver there with
a ``sys.setprofile`` hook that records each Python function entered under
``src/``. The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it is
installed in every Python process a driver starts, subprocesses included.

Every ``def`` in ``src/`` lands in one of three classes:

1. run by a driver: a benchmark workload, a micro probe, a paper bench at
   quick scale, a CI smoke or an example;
2. run only by the tier-1 tests (``pytest tests``);
3. never run.

The report lists the drivers with their wall time, the count and own lines
(a function's lines minus those of the functions nested in it) of each
class, and every class-2 and class-3 function. Standard library only; no
options. Under the profiler the drivers take about half an hour and tier-1
about ten minutes on a 2-core host.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

_HOOK = '''\
import atexit, os, sys, threading

_SRC = os.environ["CENSUS_SRC"]
_OUT = os.environ["CENSUS_OUT"]
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = sorted({f"{os.path.realpath(code.co_filename)}\\t{code.co_firstlineno}"
                   for code in _seen})
    rows = [row for row in rows if row.startswith(_SRC)]
    path = os.path.join(_OUT, f"{os.getpid()}-{id(_seen)}.txt")
    with open(path, "w") as handle:
        handle.write("\\n".join(rows))


threading.setprofile(_profile)
sys.setprofile(_profile)
'''

_WORKLOAD = """\
import sys
sys.argv = ["run.py", "--workload", sys.argv[1], "--passes", "3"]
sys.path.insert(0, "benchmarks/perf")
import run
sys.exit(run.main())
"""

_MICRO = """\
import sys
sys.path.insert(0, "benchmarks/perf")
import micro
for probe, _unit in micro.PROBES.values():
    probe(16)
"""

WORKLOADS = ("tpcc_three_city", "point_select_one_region",
             "sql_mixed_three_city", "tpcc_gtm_sync_three_city",
             "hot_rows_three_city")
EXAMPLES = ("quickstart", "global_retail", "mode_migration",
            "replica_freshness", "sync_tables", "failover_demo")


def drivers() -> list[tuple[str, list[str]]]:
    """Everything but tier-1 that runs the package: ``(name, argv)``."""
    py = sys.executable
    runs = [(f"workload {name}", [py, "-c", _WORKLOAD, name])
            for name in WORKLOADS]
    runs.append(("micro probes", [py, "-c", _MICRO]))
    runs.append(("paper benches (quick)",
                 [py, "-m", "pytest", "benchmarks", "--benchmark-disable",
                  "-q", "-p", "no:cacheprovider"]))
    runs += [
        ("simlint", [py, "-m", "repro.lint", "src", "--format", "json"]),
        ("determinism", [py, "-m", "repro.lint", "--determinism",
                         "--seeds", "3"]),
        ("chaos determinism", [py, "-m", "repro.lint", "--determinism",
                               "--chaos", "--seeds", "3"]),
        ("simsan", [py, "-m", "repro.lint", "san", "--json",
                    "simsan-findings.json"]),
        ("obs smoke", [py, "-m", "repro.obs", "run", "--check",
                       "--telemetry", "--out", "traces", "--duration", "0.3",
                       "--warmup", "0.1"]),
        ("dashboard", [py, "-m", "repro.obs", "dash", "traces/trace.jsonl",
                       "--html", "traces/dashboard.html",
                       "--fail-on-error-alerts"]),
        ("chaos smoke", [py, "-m", "repro.check", "run", "--nemesis",
                         "default", "--seeds", "3", "--fail-on-violation",
                         "--json", "CHAOS_SMOKE.json"]),
        ("explore smoke", [py, "-m", "repro.explore", "run",
                           "--budget-trials", "25", "--seed", "0",
                           "--fail-on-violation", "--out", "explore-out"]),
    ]
    runs += [(f"example {name}", [py, f"examples/{name}.py"])
             for name in EXAMPLES]
    return runs


def tier1() -> list[tuple[str, list[str]]]:
    return [("tier-1", [sys.executable, "-m", "pytest", "-q",
                        "-p", "no:cacheprovider", "tests"])]


# ----------------------------------------------------------------------
# What there is: every def under src/
# ----------------------------------------------------------------------
def functions(src: pathlib.Path) -> dict[tuple[str, int], dict]:
    """``{(path relative to src, first line): {"name", "lines"}}``. The
    first line is the one a code object reports: the first decorator's."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        _collect(tree, rel, "", found)
    return found


def _collect(node: ast.AST, rel: str, prefix: str, found: dict) -> int:
    """Record the defs under ``node``; return the lines they span."""
    nested = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            span = child.end_lineno - first + 1
            name = prefix + child.name
            inner = _collect(child, rel, name + ".", found)
            found[(rel, first)] = {"name": name, "lines": span - inner}
            nested += span
        elif isinstance(child, ast.ClassDef):
            nested += _collect(child, rel, prefix + child.name + ".", found)
        else:
            nested += _collect(child, rel, prefix, found)
    return nested


# ----------------------------------------------------------------------
# What runs
# ----------------------------------------------------------------------
def run_driver(root: pathlib.Path, argv: list[str], hook: pathlib.Path,
               out: pathlib.Path) -> tuple[set, float, int]:
    """Run one driver in ``root``; ``(hits, wall seconds, exit code)``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    src = os.path.realpath(root / "src")
    env = dict(os.environ, CENSUS_SRC=src + os.sep, CENSUS_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(hook), src]))
    start = time.perf_counter()
    code = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    hits = set()
    for dump in out.iterdir():
        for row in dump.read_text().splitlines():
            path, line = row.split("\t")
            hits.add((os.path.relpath(path, src).replace(os.sep, "/"),
                      int(line)))
    return hits, wall, code


def census(root: pathlib.Path, driver_runs: list, test_runs: list) -> dict:
    """Run both driver lists in ``root`` and classify every def in
    ``root/src``: ``{"classes": {key: 1|2|3}, "functions", "timings"}``."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        scratch = pathlib.Path(scratch)
        hook = scratch / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(_HOOK)
        timings, hit = [], {}
        for tier, runs in ((1, driver_runs), (2, test_runs)):
            for name, argv in runs:
                hits, wall, code = run_driver(root, argv, hook,
                                              scratch / "out")
                timings.append((name, wall, code))
                for key in hits:
                    hit[key] = min(hit.get(key, tier), tier)
    found = functions(root / "src")
    classes = {key: hit.get(key, 3) for key in found}
    return {"classes": classes, "functions": found, "timings": timings}


def render(result: dict) -> str:
    found, classes = result["functions"], result["classes"]
    lines = ["driver                          wall_s  exit"]
    for name, wall, code in result["timings"]:
        lines.append(f"{name:<30} {wall:>7.1f}  {code:>4}")
    labels = {1: "run by a driver", 2: "run only by tier-1", 3: "never run"}
    lines.append("")
    lines.append("class  functions  own_lines  meaning")
    for cls, label in labels.items():
        keys = [k for k in found if classes[k] == cls]
        own = sum(found[k]["lines"] for k in keys)
        lines.append(f"{cls:>5}  {len(keys):>9}  {own:>9}  {label}")
    for cls in (2, 3):
        lines.append("")
        lines.append(f"class {cls} ({labels[cls]}):")
        for key in sorted(k for k in found if classes[k] == cls):
            path, first = key
            lines.append(f"  {path}:{first}  {found[key]['name']}  "
                         f"({found[key]['lines']} lines)")
    return "\n".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-tree-") as tree:
        tree = pathlib.Path(tree) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".benchmarks", "traces", "explore-out", "bench-*.json",
            "CHAOS_SMOKE.json", "simsan-findings.json"))
        print(render(census(tree, drivers(), tier1())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
