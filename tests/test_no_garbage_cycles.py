"""A live cluster leaves no garbage cycles.

``Environment.run`` parks the cyclic collector for the whole call and runs
one collection on the way out, so a cycle made per request or per commit
would pile up for a whole benchmark call before anything reclaimed it.
These tests drive each of the five benchmark workloads briefly, and one
chaos run under the ``default`` nemesis, with the collector off, and then
ask ``gc.collect()`` what it finds while the cluster is still referenced.
The answer must be nothing; what the graph holds once a cluster is dropped
is not counted, because every cluster is one cyclic graph.
"""

import collections
import gc
import importlib.util
import os
import sys

import pytest

import repro
from repro.check.runner import run_seed
from repro.workloads import run_workload

SCENARIOS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "perf", "scenarios.py")


def load_scenarios() -> dict:
    spec = importlib.util.spec_from_file_location("perf_scenarios",
                                                  SCENARIOS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module.SCENARIOS


SCENARIOS = load_scenarios()


def garbage_left_by(drive) -> collections.Counter:
    """Run ``drive()`` with the collector off and return, by type, what a
    collection then finds while ``drive``'s return value is referenced."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kept = drive()  # noqa: F841  (referenced across the collection)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = collections.Counter(type(obj).__name__
                                        for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if was_enabled:
            gc.enable()
    return found


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_benchmark_workload_leaves_no_cycles(name):
    scenario = SCENARIOS[name]

    def drive():
        db, workload = scenario.build(0)
        result = run_workload(db, workload, terminals=scenario.terminals,
                              duration_s=0.1, setup=False)
        assert result.stats.committed > 0
        return db, workload

    assert garbage_left_by(drive) == collections.Counter()


def test_chaos_run_under_default_nemesis_leaves_no_cycles(monkeypatch):
    clusters = []

    def build_and_keep(config):
        db = build_cluster(config)
        clusters.append(db)
        return db

    build_cluster = repro.build_cluster
    monkeypatch.setattr(repro, "build_cluster", build_and_keep)

    def drive():
        result = run_seed(0, "default")
        assert result["ok"] and result["chaos_events"] > 0
        return clusters

    assert garbage_left_by(drive) == collections.Counter()
    assert len(clusters) == 1
