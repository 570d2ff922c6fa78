"""Observability CLI: ``python -m repro.obs <command>``.

Commands:

- ``run`` — execute a small traced Three-City TPC-C run, print the
  :class:`RunReport`, and write ``trace.jsonl`` + a Chrome trace-event
  ``trace.json`` (open in ``chrome://tracing`` / Perfetto). ``--check``
  turns it into a smoke test: exit non-zero unless the trace covers at
  least six span categories, the Chrome export is valid JSON, and the
  median transaction's component sum lands within 5% of the measured
  end-to-end p50.
- ``dash <trace.jsonl>`` — render the run dashboard (alerts, time-series
  sparklines, commit critical path) as text and optionally a
  self-contained HTML file. Telemetry is read from a sibling
  ``telemetry.json`` (written by ``run --telemetry``) or ``--telemetry``;
  ``--fail-on-error-alerts`` turns it into a CI gate.
- ``summarize <trace.jsonl>`` — per-category span counts/durations of a
  previously written trace, and its network messages per commit by kind.
- ``convert <in.jsonl> <out.json>`` — turn a JSONL span log into a Chrome
  trace-event file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.report import RunReport, messages_by_kind
from repro.obs.trace import chrome_trace_dict, read_jsonl

_MS = 1e6

#: ``run --check`` requires at least this many distinct span categories.
MIN_CATEGORIES = 6

#: ... and the breakdown to be at least this close to the measured p50.
MAX_BREAKDOWN_ERROR = 0.05


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    # Imported here so `summarize`/`convert` stay usable without the
    # simulator package fully importable (and to keep startup snappy).
    from repro.cluster import ClusterConfig, build_cluster, three_city
    from repro.workloads import TpccConfig, TpccWorkload, run_workload

    config = ClusterConfig.globaldb(three_city(), metrics_enabled=True,
                                    trace_enabled=True,
                                    timeseries_enabled=args.telemetry)
    db = build_cluster(config)
    workload = TpccWorkload(TpccConfig(warehouses=args.warehouses))
    result = run_workload(db, workload, terminals=args.terminals,
                          duration_s=args.duration, warmup_s=args.warmup)
    report = RunReport.capture(db, result)
    print(result.summary())
    print()
    print(report.render())

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl_path = out_dir / "trace.jsonl"
    chrome_path = out_dir / "trace.json"
    db.env.tracer.to_jsonl(str(jsonl_path))
    db.env.tracer.write_chrome_trace(str(chrome_path))
    print(f"\nwrote {jsonl_path} ({len(db.env.tracer.spans)} spans) "
          f"and {chrome_path}")

    if args.telemetry:
        from repro.obs import telemetry_snapshot
        db.env.series.catch_up()  # seal + evaluate trailing windows
        snapshot = telemetry_snapshot(db.env)
        telemetry_path = out_dir / "telemetry.json"
        with open(telemetry_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        alerts = snapshot["monitor"]["alerts"]
        print(f"wrote {telemetry_path} "
              f"({len(snapshot['timeseries']['series'])} series, "
              f"{len(alerts)} alerts)")
        for alert in alerts:
            print(f"  alert [{alert['severity']}] {alert['rule']}: "
                  f"{alert['series']} = {alert['value']:g} "
                  f"in window {alert['window']}")

    if args.check:
        return _check(report, chrome_path)
    return 0


# ----------------------------------------------------------------------
# dash
# ----------------------------------------------------------------------
def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import Dashboard

    spans = read_jsonl(args.trace)
    telemetry_path = Path(args.telemetry) if args.telemetry else \
        Path(args.trace).parent / "telemetry.json"
    telemetry = None
    if telemetry_path.exists():
        with open(telemetry_path, encoding="utf-8") as handle:
            telemetry = json.load(handle)
    else:
        print(f"note: no telemetry at {telemetry_path} "
              f"(run with --telemetry to capture time-series + alerts)")

    dashboard = Dashboard(telemetry=telemetry, spans=spans,
                          title=f"repro dashboard — {args.trace}")
    print(dashboard.render_text())
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(dashboard.render_html())
        print(f"wrote {args.html}")
    if args.fail_on_error_alerts:
        errors = dashboard.error_alerts()
        if errors:
            for alert in errors:
                print(f"dash FAIL: error alert {alert['rule']} on "
                      f"{alert['series']} in window {alert['window']}",
                      file=sys.stderr)
            return 1
        print("dash PASS: no severity=error alerts")
    return 0


def _check(report: RunReport, chrome_path: Path) -> int:
    """Validate the run for CI; print PASS/FAIL per criterion."""
    failures = []
    categories = sorted(report.category_counts)
    if len(categories) < MIN_CATEGORIES:
        failures.append(f"only {len(categories)} span categories "
                        f"({categories}); need >= {MIN_CATEGORIES}")
    try:
        with open(chrome_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not payload.get("traceEvents"):
            failures.append("chrome trace has no traceEvents")
    except (OSError, ValueError) as exc:
        failures.append(f"chrome trace is not valid JSON: {exc}")
    if not report.transactions:
        failures.append("no traced read-write transactions in the window")
    else:
        error = report.breakdown_error()
        if error > MAX_BREAKDOWN_ERROR:
            failures.append(
                f"breakdown error {error * 100:.2f}% exceeds "
                f"{MAX_BREAKDOWN_ERROR * 100:.0f}% "
                f"(e2e p50 {report.e2e_p50_ns() / _MS:.3f} ms)")

    print(f"\ncheck: {len(categories)} span categories: "
          f"{', '.join(categories)}")
    if failures:
        for failure in failures:
            print(f"check FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check PASS: chrome trace valid, "
          f"{len(report.transactions)} transactions, breakdown within "
          f"{report.breakdown_error() * 100:.2f}% of e2e p50")
    return 0


# ----------------------------------------------------------------------
# summarize / convert
# ----------------------------------------------------------------------
def _cmd_summarize(args: argparse.Namespace) -> int:
    spans = read_jsonl(args.trace)
    counts: dict[str, int] = {}
    durations: dict[str, int] = {}
    for span in spans:
        cat = span["cat"]
        counts[cat] = counts.get(cat, 0) + 1
        durations[cat] = (durations.get(cat, 0)
                          + span["end_ns"] - span["start_ns"])
    if not spans:
        print("no spans")
        return 0
    first = min(span["start_ns"] for span in spans)
    last = max(span["end_ns"] for span in spans)
    print(f"{len(spans)} spans over {(last - first) / _MS:.3f} sim-ms "
          f"in {len(counts)} categories")
    width = max(len(cat) for cat in counts)
    for cat in sorted(counts):
        print(f"  {cat.ljust(width)}  {counts[cat]:>8} spans  "
              f"{durations[cat] / _MS:>12.3f} ms total")
    kinds, commits = messages_by_kind(spans)
    if kinds:
        print(f"{sum(kinds.values())} network messages for {commits} commits")
        width = max(len(kind) for kind in kinds)
        for kind, count in kinds.items():
            print(f"  {kind.ljust(width)}  {count:>8} messages  "
                  f"{count / max(1, commits):>10.2f} per commit")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    spans = read_jsonl(args.trace)
    payload = chrome_trace_dict(spans)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    print(f"wrote {args.output} ({len(payload['traceEvents'])} events)")
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace / metrics tooling for simulator runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="traced Three-City TPC-C smoke run")
    run.add_argument("--out", default="traces",
                     help="output directory (default: ./traces)")
    run.add_argument("--duration", type=float, default=0.5,
                     help="measured sim-seconds (default: 0.5)")
    run.add_argument("--warmup", type=float, default=0.2,
                     help="warmup sim-seconds excluded from stats")
    run.add_argument("--terminals", type=int, default=30)
    run.add_argument("--warehouses", type=int, default=6)
    run.add_argument("--check", action="store_true",
                     help="exit non-zero unless the trace passes the "
                          "acceptance criteria (for CI)")
    run.add_argument("--telemetry", action="store_true",
                     help="also capture windowed time-series + default SLO "
                          "monitors; writes telemetry.json next to the trace")
    run.set_defaults(func=_cmd_run)

    dash = sub.add_parser("dash", help="render the run dashboard "
                                       "(alerts, sparklines, critical path)")
    dash.add_argument("trace", help="trace.jsonl from a run")
    dash.add_argument("--telemetry", default=None,
                      help="telemetry.json path (default: sibling of trace)")
    dash.add_argument("--html", default=None,
                      help="also write a self-contained HTML dashboard here")
    dash.add_argument("--fail-on-error-alerts", action="store_true",
                      help="exit non-zero if any severity=error alert fired "
                           "(for CI)")
    dash.set_defaults(func=_cmd_dash)

    summarize = sub.add_parser("summarize",
                               help="per-category summary of a trace.jsonl")
    summarize.add_argument("trace")
    summarize.set_defaults(func=_cmd_summarize)

    convert = sub.add_parser("convert",
                             help="JSONL span log -> Chrome trace JSON")
    convert.add_argument("trace")
    convert.add_argument("output")
    convert.set_defaults(func=_cmd_convert)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # e.g. piped into `head`
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
