"""Per-transaction commit critical-path analysis.

:func:`analyze` reconstructs each committed transaction's span tree from a
trace (live :class:`~repro.obs.trace.Span` objects or the dicts read back
from ``trace.jsonl``) and partitions its end-to-end latency into
**exclusive** segments that sum *exactly* — to the nanosecond — to the
measured e2e latency:

- ``snapshot / admission`` — the ``txn begin`` span (GTM snapshot RTT or
  local invocation wait, plus CN admission);
- ``execute (statements)`` — the ``txn execute`` span;
- the ``txn commit`` interval, partitioned between the txid-matched child
  spans that overlap it, attributed by priority (a nanosecond covered by
  several children counts once, for the highest-priority one):

  1. ``commit: commit-wait``        (``ts commit_wait``)
  2. ``commit: gtm rpc``            (``ts commit_rpc``)
  3. ``commit: wal flush & acks``   (``wal flush``, parallel per-shard)
  4. ``commit: service + network``  — the residual nobody claims.

Exactness falls out of the construction: the three lifecycle spans are
contiguous (``begin.end == execute.start``, ``execute.end ==
commit.start``), children are clipped to the commit interval before the
interval subtraction, and the residual is defined as the uncovered
remainder. The begin phase stays a single segment because its children
(``ts begin_rpc`` / ``invocation_wait``) carry no txid — several
concurrent transactions share a CN track, so containment matching would
mis-attribute.

Pure functions over span data: no env, no clocks, importable offline.
"""

from __future__ import annotations

import typing

_MS = 1e6  # ns per ms

SEG_BEGIN = "snapshot / admission"
SEG_EXECUTE = "execute (statements)"
SEG_COMMIT_WAIT = "commit: commit-wait"
SEG_GTM_RPC = "commit: gtm rpc"
SEG_WAL = "commit: wal flush & acks"
SEG_RESIDUAL = "commit: service + network"

#: Segment names in report order.
SEGMENTS = (SEG_BEGIN, SEG_EXECUTE, SEG_COMMIT_WAIT, SEG_GTM_RPC, SEG_WAL,
            SEG_RESIDUAL)

#: (category, name) -> commit-interval priority class, best first.
_CHILD_SEGMENT = {
    ("ts", "commit_wait"): SEG_COMMIT_WAIT,
    ("ts", "commit_rpc"): SEG_GTM_RPC,
    ("wal", "flush"): SEG_WAL,
}

_COMMIT_PRIORITY = (SEG_COMMIT_WAIT, SEG_GTM_RPC, SEG_WAL)


# ----------------------------------------------------------------------
# Exact interval arithmetic (half-open [start, end) pairs, integer ns)
# ----------------------------------------------------------------------
def _merge(intervals: typing.Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of intervals as a sorted, disjoint list."""
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _subtract(intervals: list[tuple[int, int]],
              covered: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``intervals`` minus ``covered`` (both sorted and disjoint)."""
    result: list[tuple[int, int]] = []
    for start, end in intervals:
        cursor = start
        for cov_start, cov_end in covered:
            if cov_end <= cursor:
                continue
            if cov_start >= end:
                break
            if cov_start > cursor:
                result.append((cursor, min(cov_start, end)))
            cursor = max(cursor, cov_end)
            if cursor >= end:
                break
        if cursor < end:
            result.append((cursor, end))
    return result


def _total(intervals: list[tuple[int, int]]) -> int:
    return sum(end - start for start, end in intervals)


# ----------------------------------------------------------------------
# Per-transaction path
# ----------------------------------------------------------------------
class TxnPath:
    """One transaction's exact latency partition."""

    __slots__ = ("txid", "track", "start_ns", "end_ns", "segments")

    def __init__(self, txid, track: str, start_ns: int, end_ns: int,
                 segments: dict[str, int]):
        self.txid = txid
        self.track = track          # the CN that ran it
        self.start_ns = start_ns    # begin-span start
        self.end_ns = end_ns        # commit-span end
        self.segments = segments    # segment name -> exclusive ns

    @property
    def e2e_ns(self) -> int:
        """Measured end-to-end latency (commit end minus begin start)."""
        return self.end_ns - self.start_ns

    @property
    def attributed_ns(self) -> int:
        return sum(self.segments.values())

    def dominant(self) -> str:
        """The segment that claims the most time."""
        return max(SEGMENTS, key=lambda name: self.segments[name])

    def to_dict(self) -> dict:
        return {
            "txid": self.txid,
            "track": self.track,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "e2e_ns": self.e2e_ns,
            "segments": dict(self.segments),
        }


def _as_dict(span) -> dict:
    return span.to_dict() if hasattr(span, "to_dict") else span


def analyze(spans, window: tuple[int, int] | None = None) -> list[TxnPath]:
    """Reconstruct every complete transaction's critical path.

    ``window`` (start_ns, end_ns) keeps only transactions whose commit
    finished inside it, matching the workload driver's measurement window.
    Output is sorted by commit-finish time (ties by begin start), so it is
    independent of span iteration details.
    """
    lifecycle: dict = {}
    children: dict = {}
    for raw in spans:
        span = _as_dict(raw)
        txid = span.get("args", {}).get("txid")
        if txid is None:
            continue
        cat, name = span["cat"], span["name"]
        if cat == "txn" and name in ("begin", "execute", "commit"):
            lifecycle.setdefault(txid, {})[name] = span
        elif (cat, name) in _CHILD_SEGMENT:
            children.setdefault(txid, []).append(span)

    paths = []
    for txid, parts in lifecycle.items():
        if len(parts) != 3:
            continue  # aborted or clipped transaction
        begin, execute, commit = parts["begin"], parts["execute"], parts["commit"]
        commit_start, commit_end = commit["start_ns"], commit["end_ns"]
        if window is not None and not (window[0] <= commit_end < window[1]):
            continue

        by_segment: dict[str, list[tuple[int, int]]] = {
            name: [] for name in _COMMIT_PRIORITY}
        for child in children.get(txid, ()):
            segment = _CHILD_SEGMENT[(child["cat"], child["name"])]
            clipped = (max(child["start_ns"], commit_start),
                       min(child["end_ns"], commit_end))
            if clipped[1] > clipped[0]:
                by_segment[segment].append(clipped)

        segments = {
            SEG_BEGIN: begin["end_ns"] - begin["start_ns"],
            SEG_EXECUTE: execute["end_ns"] - execute["start_ns"],
        }
        covered: list[tuple[int, int]] = []
        for name in _COMMIT_PRIORITY:
            exclusive = _subtract(_merge(by_segment[name]), covered)
            segments[name] = _total(exclusive)
            covered = _merge(covered + exclusive)
        segments[SEG_RESIDUAL] = (commit_end - commit_start) - _total(covered)
        paths.append(TxnPath(txid, commit["track"], begin["start_ns"],
                             commit_end, segments))
    paths.sort(key=lambda path: (path.end_ns, path.start_ns, str(path.txid)))
    return paths


# ----------------------------------------------------------------------
# Cluster-level aggregation
# ----------------------------------------------------------------------
class CriticalPathReport:
    """Aggregates :class:`TxnPath` rows into a where-commit-time-goes table."""

    def __init__(self, paths: list[TxnPath]):
        self.paths = paths

    @classmethod
    def from_spans(cls, spans,
                   window: tuple[int, int] | None = None) -> "CriticalPathReport":
        return cls(analyze(spans, window))

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Per segment: total ns, mean ns, share of total e2e time, and
        how many transactions it dominates."""
        totals = {name: 0 for name in SEGMENTS}
        dominant = {name: 0 for name in SEGMENTS}
        for path in self.paths:
            for name, value in path.segments.items():
                totals[name] += value
            dominant[path.dominant()] += 1
        grand = sum(totals.values())
        count = len(self.paths)
        return {
            name: {
                "total_ns": totals[name],
                "mean_ns": totals[name] / count if count else 0.0,
                "share": totals[name] / grand if grand else 0.0,
                "dominates": dominant[name],
            }
            for name in SEGMENTS
        }

    def max_attribution_error_ns(self) -> int:
        """Worst |attributed − measured| over all paths; 0 by construction
        unless the trace was damaged."""
        return max((abs(path.attributed_ns - path.e2e_ns)
                    for path in self.paths), default=0)

    def mean_e2e_ns(self) -> float:
        if not self.paths:
            return 0.0
        return sum(path.e2e_ns for path in self.paths) / len(self.paths)

    # ------------------------------------------------------------------
    def table(self):
        from repro.bench.harness import ExperimentTable  # lazy: avoids cycle
        table = ExperimentTable(
            experiment="Critical path — where commit latency goes",
            paper_claim="exclusive per-segment attribution; segments sum "
                        "exactly to measured e2e latency",
            columns=["segment", "mean_ms", "share_pct", "dominates_txns"])
        agg = self.aggregate()
        for name in SEGMENTS:
            row = agg[name]
            table.add_row(name, row["mean_ns"] / _MS, 100.0 * row["share"],
                          row["dominates"])
        if self.paths:
            table.note(f"{len(self.paths)} transactions; mean e2e = "
                       f"{self.mean_e2e_ns() / _MS:.3f} ms; max attribution "
                       f"error = {self.max_attribution_error_ns()} ns")
        else:
            table.note("no complete traced transactions")
        return table

    def render(self) -> str:
        return self.table().render()
