"""Layer table and the traced run's attribution of host time to layers.

The benchmark wraps the timed call in ``cProfile`` from its own files and
buckets self time (``tottime``) and call counts by layer. A function maps
to a layer by the longest module-path prefix below, so a later split inside
a package stays in its layer. Builtins, the standard library and generated
code (``<string>``: dataclass ``__eq__`` and friends) have no layer of
their own: their time is charged to whoever called them, following
cProfile's caller edges up to the nearest mapped frame.
"""

from __future__ import annotations

import cProfile
import os

import repro

#: (module-path prefix, layer), matched longest prefix first.
LAYER_PREFIXES = (
    ("repro.sim.network", "sim.network"),
    ("repro.sim.transport", "sim.network"),
    ("repro.sim", "sim.kernel"),          # core, events, resources, rand, units
    ("repro.storage.locks", "storage.locks"),
    ("repro.storage.wal", "storage.wal"),
    ("repro.storage.redo", "storage.wal"),
    ("repro.storage", "storage.mvcc"),    # engine, heap, clog, vacuum, catalog
    ("repro.replication", "replication"),
    ("repro.txn", "txn"),
    ("repro.clocks", "txn"),
    ("repro.ror", "ror"),
    ("repro.cluster.cn", "cluster.cn"),
    ("repro.cluster.client", "cluster.cn"),
    ("repro.cluster", "cluster.dn"),      # dn, node, builder, sharding, ...
    ("repro.sql", "sql"),
    ("repro.workloads", "workloads"),
    ("repro.obs", "tooling"),
    ("repro.san", "tooling"),
    ("repro.check", "tooling"),
    ("repro.chaos", "tooling"),
    ("repro.explore", "tooling"),
    ("repro.lint", "tooling"),
    ("repro.bench", "tooling"),
)
#: ``other`` is builtin/stdlib time no caller edge resolves; ``unmapped`` is
#: ``repro`` code outside every prefix above.
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (
    "other", "unmapped")

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep
_PREFIXES_LONGEST_FIRST = sorted(LAYER_PREFIXES, key=lambda p: -len(p[0]))


def layer_of(code) -> str | None:
    """Layer of a profiled function, or None when it has none of its own
    (a builtin, the standard library, generated code)."""
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return None  # builtin: cProfile reports it as a string
    if filename.startswith(_BENCH_ROOT):
        return "workloads"  # the load generator
    if not filename.startswith(_REPRO_ROOT):
        return None
    relative = filename[len(_REPRO_ROOT):].removesuffix(".py")
    module = "repro." + relative.replace(os.sep, ".")
    for prefix, layer in _PREFIXES_LONGEST_FIRST:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "unmapped"


def _code_key(code) -> tuple:
    if isinstance(code, str):
        return ("", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def attribute(profiler: cProfile.Profile) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` for one profile.

    Self time and calls of a function without a layer are split over its
    callers in proportion to what each caller edge recorded for it (self
    time by the edge's ``inlinetime``, calls by its ``callcount``). A caller
    that has no layer either passes its part on to its own callers, by
    those edges' ``totaltime`` (calls: ``callcount``). Call counts are
    weighted by counts only, so they repeat exactly from run to run.
    """
    entries = sorted(profiler.getstats(), key=lambda e: _code_key(e.code))
    own_layer = {entry.code: layer_of(entry.code) for entry in entries}
    callers: dict = {}  # callee code -> [(caller code, edge)]
    for entry in entries:
        for edge in sorted(entry.calls or (), key=lambda s: _code_key(s.code)):
            callers.setdefault(edge.code, []).append((entry.code, edge))
    totals = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}

    def charge_callers(code, amount: float, key: str, weight_of, up_weight_of,
                       seen: frozenset) -> None:
        edges = [(caller, edge) for caller, edge in callers.get(code, ())
                 if caller not in seen]
        total = sum(weight_of(edge) for _, edge in edges)
        if total <= 0:
            totals["other"][key] += amount
            return
        for caller, edge in edges:
            part = amount * weight_of(edge) / total
            if own_layer[caller] is not None:
                totals[own_layer[caller]][key] += part
            else:
                charge_callers(caller, part, key, up_weight_of, up_weight_of,
                               seen | {caller})

    for entry in entries:
        layer = own_layer[entry.code]
        primitive_calls = entry.callcount - entry.reccallcount
        if layer is not None:
            totals[layer]["self_s"] += entry.inlinetime
            totals[layer]["calls"] += primitive_calls
            continue
        seen = frozenset({entry.code})
        charge_callers(entry.code, entry.inlinetime, "self_s",
                       lambda edge: edge.inlinetime,
                       lambda edge: edge.totaltime, seen)
        charge_callers(entry.code, primitive_calls, "calls",
                       lambda edge: edge.callcount,
                       lambda edge: edge.callcount, seen)
    return totals


#: suffix of ``<layer>.<suffix>`` -> unit
LAYER_METRIC_UNITS = {"self_share": "share", "self_us_per_commit": "us",
                      "calls_per_commit": "count"}


def layer_metrics(profiler: cProfile.Profile, commits: int) -> dict:
    """``{"<layer>.<suffix>": {"value", "unit"}}`` for every layer."""
    totals = attribute(profiler)
    all_self_s = sum(t["self_s"] for t in totals.values())
    metrics = {}
    for layer in LAYERS:
        self_s, calls = totals[layer]["self_s"], totals[layer]["calls"]
        values = {"self_share": self_s / all_self_s,
                  "self_us_per_commit": 1e6 * self_s / commits,
                  "calls_per_commit": calls / commits}
        for suffix, unit in LAYER_METRIC_UNITS.items():
            metrics[f"{layer}.{suffix}"] = {"value": values[suffix],
                                            "unit": unit}
    return metrics
