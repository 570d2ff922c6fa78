"""Per-run observability reports.

:class:`RunReport` digests a traced run into paper-style tables (rendered
through the same :class:`~repro.bench.harness.ExperimentTable` machinery
the benchmarks use):

- **commit-latency breakdown** — where a read-write transaction's
  end-to-end time goes: timestamp acquisition, execution, commit-wait,
  log-flush/ack wait, and the commit-path residual (CN/DN service +
  network). Components are taken from the per-transaction spans the CN,
  provider, and DN emit, so for the median transaction they sum *exactly*
  to its measured end-to-end latency.
- **subsystem span summary** — span counts and total simulated time per
  category (where simulated time goes, Fig. 1/4/6-style).
- **network messages per commit by kind** — what the cluster says on the
  wire for each commit it makes (statement round trips, redo batches and
  acks, GTM requests, the ROR control plane), counted from the ``net``
  spans the network already records; nothing is counted when tracing is
  off.
- **run overview** — cluster-wide counters (commits, GTM traffic, RCP lag,
  shipped bytes) plus key metric-registry instruments.

The report is JSON-serializable (``to_dict``) so benches can attach it to
``ExperimentTable.extra_info``.
"""

from __future__ import annotations

import typing

_MS = 1e6  # ns per ms

#: The five components the breakdown partitions a transaction into.
BREAKDOWN_COMPONENTS = (
    "timestamp acquisition",
    "execute",
    "commit wait",
    "log flush / acks",
    "commit other (service+net)",
)


def _experiment_table():
    # Imported lazily: repro.bench pulls in the cluster builder, which
    # imports repro.obs — a module-level import here would be circular.
    from repro.bench.harness import ExperimentTable
    return ExperimentTable


class _TxnBreakdown:
    """Per-transaction component durations extracted from spans."""

    __slots__ = ("txid", "begin", "execute", "commit", "wait", "flush", "end")

    def __init__(self, txid):
        self.txid = txid
        self.begin = self.execute = self.commit = None
        self.wait = 0
        self.flush = 0
        self.end = 0

    @property
    def complete(self) -> bool:
        return None not in (self.begin, self.execute, self.commit)

    @property
    def total(self) -> int:
        return self.begin + self.execute + self.commit

    def components(self) -> dict[str, int]:
        other = max(0, self.commit - self.wait - self.flush)
        return {
            BREAKDOWN_COMPONENTS[0]: self.begin,
            BREAKDOWN_COMPONENTS[1]: self.execute,
            BREAKDOWN_COMPONENTS[2]: self.wait,
            BREAKDOWN_COMPONENTS[3]: self.flush,
            BREAKDOWN_COMPONENTS[4]: other + min(
                0, self.commit - self.wait - self.flush),
        }


def extract_transactions(spans, window: tuple[int, int] | None = None
                         ) -> list[_TxnBreakdown]:
    """Group lifecycle spans by transaction id.

    ``window`` (start_ns, end_ns) filters to transactions whose commit
    finished inside it — matching the workload driver's measurement window
    so the two latency populations are identical.
    """
    txns: dict[typing.Any, _TxnBreakdown] = {}

    def entry(txid) -> _TxnBreakdown:
        breakdown = txns.get(txid)
        if breakdown is None:
            breakdown = txns[txid] = _TxnBreakdown(txid)
        return breakdown

    for span in spans:
        txid = span.args.get("txid")
        if txid is None:
            continue
        if span.cat == "txn":
            if span.name == "begin":
                entry(txid).begin = span.duration_ns
            elif span.name == "execute":
                entry(txid).execute = span.duration_ns
            elif span.name == "commit":
                record = entry(txid)
                record.commit = span.duration_ns
                record.end = span.end
        elif span.cat == "ts" and span.name == "commit_wait":
            entry(txid).wait += span.duration_ns
        elif span.cat == "wal" and span.name == "flush":
            # Parallel per-shard flushes: the critical path is the longest.
            record = entry(txid)
            record.flush = max(record.flush, span.duration_ns)
    complete = [txn for txn in txns.values() if txn.complete]
    if window is not None:
        start, end = window
        complete = [txn for txn in complete if start <= txn.end < end]
    return complete


def messages_by_kind(spans, window: tuple[int, int] | None = None
                     ) -> tuple[dict[str, int], int]:
    """``(kind -> network messages sent, commits)`` of a trace.

    A message is one ``net`` span (its name is the payload kind the
    network gave it at send time; replies are ``rpc_reply``), a commit one
    ``txn``/``commit`` span. ``window`` keeps messages sent and commits
    finished inside ``[start_ns, end_ns)``. Accepts live :class:`Span`
    objects and the dicts :func:`~repro.obs.trace.read_jsonl` returns.
    Kinds come back most frequent first, ties by name.
    """
    kinds: dict[str, int] = {}
    commits = 0
    for span in spans:
        if isinstance(span, dict):
            cat, name = span["cat"], span["name"]
            start, end = span["start_ns"], span["end_ns"]
        else:
            cat, name, start, end = span.cat, span.name, span.start, span.end
        if cat == "net":
            if window is None or window[0] <= start < window[1]:
                kinds[name] = kinds.get(name, 0) + 1
        elif cat == "txn" and name == "commit":
            if window is None or window[0] <= end < window[1]:
                commits += 1
    ordered = sorted(kinds.items(), key=lambda item: (-item[1], item[0]))
    return dict(ordered), commits


class RunReport:
    """Digest of one run's tracer + metrics + cluster counters."""

    def __init__(self, transactions: list[_TxnBreakdown],
                 category_counts: dict[str, int],
                 category_duration_ns: dict[str, int],
                 overview: dict, dropped_spans: int = 0,
                 driver_p50_ms: float | None = None,
                 metrics_snapshot: list | None = None,
                 message_counts: dict[str, int] | None = None,
                 commits: int = 0):
        self.transactions = transactions
        self.category_counts = category_counts
        self.category_duration_ns = category_duration_ns
        self.overview = overview
        self.dropped_spans = dropped_spans
        self.driver_p50_ms = driver_p50_ms
        self.metrics_snapshot = metrics_snapshot or []
        self.message_counts = message_counts or {}
        self.commits = commits

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, db, result=None) -> "RunReport":
        """Build a report from a :class:`~repro.cluster.builder.GlobalDB`
        (after a run) and optionally the :class:`WorkloadResult`."""
        tracer = db.env.tracer
        window = None
        driver_p50 = None
        if result is not None:
            stats = result.stats
            driver_p50 = stats.latency_percentile_ms(50)
            if stats.window_ns and getattr(stats, "window_start_ns", 0):
                window = (stats.window_start_ns,
                          stats.window_start_ns + stats.window_ns)
        transactions = extract_transactions(tracer.spans, window)
        message_counts, commits = messages_by_kind(tracer.spans, window)
        if result is not None:
            # The driver's count: it also covers operations that commit
            # without a ``txn`` span (read-only queries on the ROR path).
            commits = result.stats.committed
        return cls(
            transactions=transactions,
            category_counts=tracer.counts_by_category(),
            category_duration_ns=tracer.duration_by_category(),
            overview=db.stats(),
            dropped_spans=tracer.dropped,
            driver_p50_ms=driver_p50,
            metrics_snapshot=db.env.metrics.snapshot(),
            message_counts=message_counts,
            commits=commits,
        )

    # ------------------------------------------------------------------
    # Commit-latency breakdown
    # ------------------------------------------------------------------
    def e2e_p50_ns(self) -> int:
        """Measured end-to-end p50 over component-complete transactions."""
        if not self.transactions:
            return 0
        totals = sorted(txn.total for txn in self.transactions)
        return totals[(len(totals) - 1) // 2]

    def median_transaction(self) -> _TxnBreakdown | None:
        if not self.transactions:
            return None
        ordered = sorted(self.transactions, key=lambda txn: txn.total)
        return ordered[(len(ordered) - 1) // 2]

    def breakdown_error(self) -> float:
        """Relative error between the median transaction's component sum
        and the measured end-to-end p50 (0.0 when both agree exactly)."""
        p50 = self.e2e_p50_ns()
        median = self.median_transaction()
        if not p50 or median is None:
            return 0.0
        return abs(sum(median.components().values()) - p50) / p50

    def commit_breakdown(self):
        """The breakdown table: median-transaction and mean components."""
        table = _experiment_table()(
            experiment="Run report — commit latency breakdown",
            paper_claim="where simulated time goes in a read-write commit",
            columns=["component", "median_txn_ms", "mean_ms", "share_pct"])
        txns = self.transactions
        if not txns:
            table.note("no traced read-write transactions (tracing off, or "
                       "read-only workload)")
            return table
        median = self.median_transaction()
        median_parts = median.components()
        mean_parts = {name: 0.0 for name in BREAKDOWN_COMPONENTS}
        for txn in txns:
            for name, value in txn.components().items():
                mean_parts[name] += value
        mean_total = sum(txn.total for txn in txns) / len(txns)
        for name in BREAKDOWN_COMPONENTS:
            mean_value = mean_parts[name] / len(txns)
            table.add_row(name, median_parts[name] / _MS, mean_value / _MS,
                          100.0 * mean_value / mean_total if mean_total else 0.0)
        p50 = self.e2e_p50_ns()
        table.add_row("end-to-end (sum)",
                      sum(median_parts.values()) / _MS, mean_total / _MS, 100.0)
        table.note(f"{len(txns)} traced read-write transactions; "
                   f"measured e2e p50 = {p50 / _MS:.3f} ms "
                   f"(component sum within {self.breakdown_error() * 100:.2f}%)")
        if self.driver_p50_ms is not None:
            table.note(f"driver-measured p50 over all transaction types = "
                       f"{self.driver_p50_ms:.3f} ms")
        return table

    # ------------------------------------------------------------------
    # Subsystem + overview tables
    # ------------------------------------------------------------------
    def subsystem_table(self):
        table = _experiment_table()(
            experiment="Run report — spans by subsystem",
            paper_claim="per-component activity and simulated time",
            columns=["category", "spans", "total_ms"])
        for category, count in self.category_counts.items():
            table.add_row(category, count,
                          self.category_duration_ns.get(category, 0) / _MS)
        if self.dropped_spans:
            table.note(f"{self.dropped_spans} spans dropped (max_spans cap)")
        return table

    def messages_table(self):
        table = _experiment_table()(
            experiment="Run report — network messages per commit by kind",
            paper_claim="what the cluster sends for each commit it makes",
            columns=["kind", "messages", "per_commit", "share_pct"])
        total = sum(self.message_counts.values())
        if not total:
            table.note("no traced network messages (tracing off)")
            return table
        commits = max(1, self.commits)
        for kind, count in self.message_counts.items():
            table.add_row(kind, count, count / commits, 100.0 * count / total)
        table.add_row("all kinds", total, total / commits, 100.0)
        table.note(f"{self.commits} commits in the measured window")
        return table

    def overview_table(self):
        table = _experiment_table()(
            experiment="Run report — cluster overview",
            paper_claim="cluster-wide counters for this run",
            columns=["metric", "value"])
        for key, value in self.overview.items():
            table.add_row(key, value)
        table.add_row("metric instruments", len(self.metrics_snapshot))
        return table

    # ------------------------------------------------------------------
    def tables(self) -> list:
        return [self.commit_breakdown(), self.subsystem_table(),
                self.messages_table(), self.overview_table()]

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables())

    def to_dict(self) -> dict:
        return {
            "categories": self.category_counts,
            "category_duration_ns": self.category_duration_ns,
            "traced_transactions": len(self.transactions),
            "e2e_p50_ns": self.e2e_p50_ns(),
            "breakdown_error": self.breakdown_error(),
            "driver_p50_ms": self.driver_p50_ms,
            "dropped_spans": self.dropped_spans,
            "overview": {key: value for key, value in self.overview.items()},
            "tables": [table.to_dict() for table in self.tables()],
        }
