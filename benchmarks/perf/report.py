"""Text rendering of a benchmark record, and the comparison of two records.

The text is GitHub-flavoured markdown, so a run's output can be committed
as it is (``BASELINE.md``).
"""

from __future__ import annotations

from layers import LAYER_METRIC_UNITS, LAYERS
from measure import EXACT


def _num(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _table(header: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
              for row in rows]
    return lines


def render_workload(name: str, record: dict) -> list[str]:
    scenario = record["scenario"]
    lines = [f"## {name}", "", scenario["why"], "",
             f"- scenario: {scenario['terminals']} terminals, "
             f"{scenario['warmup_s']} sim-s warm-up + {scenario['timed_s']} "
             f"sim-s timed, {scenario['constants']}",
             f"- untraced passes: {len(record['passes'])}, "
             f"attempted {record['attempted']}, failed {record['failed']}",
             f"- sim_fingerprint: `{record['sim_fingerprint']}`",
             "- sim commit latency percentiles: p50 {p50_ms:.6g} ms, p99 "
             "{p99_ms:.6g} ms over {samples} commits".format(
                 **record["sim_percentiles"]),
             "- checks: " + ("ok" if record["correct"] else
                             "FAILED: " + "; ".join(record["failures"])),
             ""]
    lines += _table(
        ["end-to-end metric", "host/sim", "value", "median", "q1", "q3",
         "passes", "unit", "samples"],
        [[metric, m["kind"], _num(m["value"]), _num(m["median"]),
          _num(m["q1"]), _num(m["q3"]), m["n"], m["unit"],
          m.get("samples", "")]
         for metric, m in record["end_to_end"].items()])
    lines += ["", "per pass: " + ", ".join(
        f"cpu {p['cpu_s']:.3f}s wall/cpu {p['wall_over_cpu']:.2f}"
        + (" PREEMPTED" if p["preempted"] else "")
        for p in record["passes"]), ""]
    lines += _table(["per-layer metric", "value", "unit"],
                    [[metric, _num(m["value"]), m["unit"]]
                     for metric, m in record["per_layer"].items()
                     if metric.rpartition(".")[2] not in LAYER_METRIC_UNITS])
    layer_rows = [
        [layer] + [_num(record["per_layer"][f"{layer}.{suffix}"]["value"])
                   for suffix in LAYER_METRIC_UNITS]
        for layer in LAYERS if f"{layer}.self_share" in record["per_layer"]]
    if layer_rows:
        lines += ["", "traced pass, host self time by layer:", ""]
        lines += _table(["layer", *LAYER_METRIC_UNITS], layer_rows)
    return lines + [""]


def render(record: dict) -> str:
    lines = [f"# benchmarks/perf: seed {record['seed']}, python "
             f"{record['python']}, nproc {record['nproc']}, commit "
             f"{record['commit']}", "",
             "host = what the simulator costs to run; sim = what the "
             "modelled database would do.", ""]
    for name, workload in record["workloads"].items():
        lines += render_workload(name, workload)
    if record.get("micro"):
        lines += ["## micro", ""]
        lines += _table(
            ["probe", "value", "unit", "ops per loop", "note"],
            [[name, _num(m["value"]), m["unit"], m.get("ops_per_loop", ""),
              m.get("reason", "")] for name, m in record["micro"].items()])
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(metric: dict) -> float:
    """Interquartile range as a share of the median."""
    if not metric["median"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["median"])


#: A difference, or a spread, smaller than this many units counts as none:
#: set-up takes a fraction of a second, where 25% is scheduler noise.
ABSOLUTE_FLOOR = {"setup_s": 0.1}


def verdict(a: dict, b: dict, better: str, bound: float,
            floor: float = 0.0) -> str:
    """``same`` / ``better`` / ``worse`` for B against A, or ``unresolved``
    when either side's own spread is wider than the bound."""
    if any(_spread(side) > bound and side["q3"] - side["q1"] > floor
           for side in (a, b)):
        return "unresolved"
    if abs(b["value"] - a["value"]) <= floor:
        return "same"
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(record_a: dict, record_b: dict, spec: dict) -> tuple[str, bool]:
    """Markdown table of one row per (end-to-end metric, workload), and
    whether no row is ``worse`` or ``unresolved``."""
    rows = []
    clean = True
    for name, workload_a in record_a["workloads"].items():
        workload_b = record_b["workloads"].get(name)
        if workload_b is None:
            continue
        sim_changed = (workload_a["sim_fingerprint"]
                       != workload_b["sim_fingerprint"])
        for metric in spec["end_to_end"]:
            a = workload_a["end_to_end"][metric["name"]]
            b = workload_b["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"],
                             ABSOLUTE_FLOOR.get(metric["name"], 0.0))
            clean = clean and result in ("same", "better")
            note = ("sim changed"
                    if sim_changed and metric["name"] in EXACT else "")
            rows.append([metric["name"], name, _num(a["value"]),
                         _num(b["value"]),
                         f"{100 * (b['value'] - a['value']) / abs(a['value']):+.2f}%",
                         f"{100 * metric['bound']:g}%", result, note])
    table = _table(["metric", "workload", "A", "B", "B vs A", "bound",
                    "verdict", "note"], rows)
    return "\n".join(table), clean
