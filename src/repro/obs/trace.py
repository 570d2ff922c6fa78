"""Structured span tracing over simulated time.

A :class:`Span` is a named interval ``[start, end]`` of *simulated*
nanoseconds on a *track* (a node, a terminal, a shipping channel). The
tracer is purely passive: starting or ending a span never schedules an
event and never reads a wall clock, so a traced run's event history is
byte-identical to an untraced one — the determinism contract that
``tests/test_determinism.py`` enforces.

Span categories used by the built-in instrumentation:

==============  ====================================================
``txn``         client-visible transaction lifecycle (begin/execute/
                commit, emitted by the CN and the workload driver)
``ts``          timestamp protocols (GTM round trips, commit-waits)
``gtm``         GTM server request service
``net``         individual network messages (send -> deliver)
``wal``         commit-time WAL flush / replication-ack waits
``repl.ship``   redo batch formation and flush on a shipping channel
``repl.replay`` redo batch replay on a replica
``ror``         RCP polls and update distribution
``dn``          data-node request handlers (per-op service spans)
``migration``   mode-migration phases
==============  ====================================================

Export formats: JSONL (one span object per line, lossless) and the Chrome
``chrome://tracing`` / Perfetto trace-event JSON format.
"""

from __future__ import annotations

import hashlib
import json
import typing


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Span:
    """One traced interval. Created via :meth:`Tracer.start`."""

    __slots__ = ("tracer", "cat", "name", "track", "start", "end", "args",
                 "span_id", "depth")

    def __init__(self, tracer: "Tracer", cat: str, name: str, track: str,
                 start: int, span_id: int, depth: int, args: dict):
        self.tracer = tracer
        self.cat = cat
        self.name = name
        self.track = track
        self.start = start
        self.end: int | None = None
        self.args = args
        self.span_id = span_id
        self.depth = depth

    @property
    def duration_ns(self) -> int:
        return (self.end - self.start) if self.end is not None else 0

    def finish(self, **args) -> "Span":
        """End the span at the current simulated time."""
        if self.end is None:
            if args:
                self.args.update(args)
            self.tracer._finish(self)
        return self

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "cat": self.cat,
            "name": self.name,
            "track": self.track,
            "start_ns": self.start,
            "end_ns": self.end if self.end is not None else self.start,
            "depth": self.depth,
            "args": {key: _jsonable(value) for key, value in self.args.items()},
        }


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()
    duration_ns = 0
    args: dict = {}

    def finish(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans in simulated-time order of completion.

    ``max_spans`` bounds memory on long runs: once reached, further spans
    are counted in ``dropped`` instead of stored (recording control flow is
    unaffected, so determinism holds regardless).
    """

    enabled = True

    def __init__(self, env, max_spans: int | None = 500_000):
        self.env = env
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_id = 0
        self._open_by_track: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(self, cat: str, name: str, track: str = "main", **args) -> Span:
        """Open a span at ``env.now``; call ``.finish()`` to close it."""
        self._next_id += 1
        depth = self._open_by_track.get(track, 0)
        self._open_by_track[track] = depth + 1
        return Span(self, cat, name, track, self.env.now, self._next_id,
                    depth, args)

    def _finish(self, span: Span) -> None:
        span.end = self.env.now
        open_count = self._open_by_track.get(span.track, 1)
        if open_count <= 1:
            self._open_by_track.pop(span.track, None)
        else:
            self._open_by_track[span.track] = open_count - 1
        self._store(span)

    def complete(self, cat: str, name: str, start: int, end: int,
                 track: str = "main", **args) -> None:
        """Record a span whose endpoints are already known."""
        self._next_id += 1
        span = Span(self, cat, name, track, start, self._next_id,
                    self._open_by_track.get(track, 0), args)
        span.end = end
        self._store(span)

    def instant(self, cat: str, name: str, track: str = "main", **args) -> None:
        """Record a zero-duration marker event."""
        self.complete(cat, name, self.env.now, self.env.now, track, **args)

    def _store(self, span: Span) -> None:
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def counts_by_category(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.cat] = counts.get(span.cat, 0) + 1
        return dict(sorted(counts.items()))

    def duration_by_category(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span.cat] = totals.get(span.cat, 0) + span.duration_ns
        return dict(sorted(totals.items()))

    def spans_in(self, cat: str, name: str | None = None) -> list[Span]:
        return [span for span in self.spans
                if span.cat == cat and (name is None or span.name == name)]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count."""
        return write_jsonl(path, (span.to_dict() for span in self.spans))

    def chrome_trace(self) -> dict:
        return chrome_trace_dict(span.to_dict() for span in self.spans)

    def write_chrome_trace(self, path) -> int:
        """Write a ``chrome://tracing``-loadable JSON file."""
        trace = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        return len(trace["traceEvents"])

    def digest(self) -> str:
        """Order-sensitive content hash of every recorded span.

        Two runs with identical event histories produce identical digests;
        any divergence in scheduling order, timing, or span payloads
        changes the hash. This is the primitive behind the cross-process
        determinism harness (``python -m repro.lint --determinism``)."""
        return trace_digest(span.to_dict() for span in self.spans)


class NullTracer:
    """The default ``env.tracer``: all recording is a no-op."""

    enabled = False
    spans: list = []
    dropped = 0

    def start(self, cat: str, name: str, track: str = "main", **args) -> _NullSpan:
        return NULL_SPAN

    def complete(self, cat: str, name: str, start: int, end: int,
                 track: str = "main", **args) -> None:
        pass

    def instant(self, cat: str, name: str, track: str = "main", **args) -> None:
        pass

    def counts_by_category(self) -> dict:
        return {}

    def duration_by_category(self) -> dict:
        return {}


#: Shared default tracer.
NULL_TRACER = NullTracer()


def trace_digest(span_dicts: typing.Iterable[dict]) -> str:
    """SHA-256 over canonical (sorted-key) JSON of each span, in order.

    Works on live ``Span.to_dict()`` streams and on spans re-read from a
    ``trace.jsonl`` file alike, so in-process and cross-process checks
    compare the same value."""
    hasher = hashlib.sha256()
    for span in span_dicts:
        hasher.update(json.dumps(span, sort_keys=True, default=str).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Coverage-signature helpers (used by ``repro.explore``)
# ----------------------------------------------------------------------
def window_categories(spans: typing.Iterable, start_ns: int,
                      end_ns: int) -> list[str]:
    """Sorted unique span categories intersecting ``[start_ns, end_ns]``.

    Works on live :class:`Span` objects (``tracer.spans``). This is the
    structural primitive behind the explorer's coverage signature: "which
    subsystems were active while fault X held" is exactly the set of span
    categories whose intervals overlap the fault window.
    """
    seen = set()
    for span in spans:
        span_end = span.end if span.end is not None else span.start
        if span.start <= end_ns and span_end >= start_ns:
            seen.add(span.cat)
    return sorted(seen)


# ----------------------------------------------------------------------
# Trace-file helpers (also used by ``python -m repro.obs``)
# ----------------------------------------------------------------------
def write_jsonl(path, span_dicts: typing.Iterable[dict]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in span_dicts:
            fh.write(json.dumps(span, default=str))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path) -> list[dict]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def chrome_trace_dict(span_dicts: typing.Iterable[dict]) -> dict:
    """Convert span dicts to the Chrome trace-event JSON structure.

    Spans become ``ph: "X"`` complete events (timestamps in microseconds,
    as the format requires); zero-duration spans become ``ph: "i"``
    instants. Tracks map to ``tid`` with thread-name metadata so the
    timeline shows node names instead of numbers.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    for span in span_dicts:
        track = span.get("track", "main")
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
        start_us = span["start_ns"] / 1000.0
        dur_us = (span["end_ns"] - span["start_ns"]) / 1000.0
        event = {
            "name": span["name"],
            "cat": span["cat"],
            "pid": 1,
            "tid": tid,
            "ts": start_us,
            "args": span.get("args", {}),
        }
        if dur_us > 0:
            event["ph"] = "X"
            event["dur"] = dur_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    metadata = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro-sim"}},
    ]
    metadata.extend(
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": track}}
        for track, tid in tids.items()
    )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}
