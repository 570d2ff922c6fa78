"""Parallel redo replay on a replica.

Incoming batches queue behind each other; each batch costs
``apply_ns_per_record * len(batch) / parallelism`` of simulated time before
its records are applied. The paper highlights parallel replay as the reason
GlobalDB's replicas keep up with the primary; the ``parallelism`` knob lets
the ablation benchmarks show what serial replay would do to staleness.
"""

from __future__ import annotations

from collections import deque

from repro.replication.replica import ReplicaStore
from repro.sim.core import Environment
from repro.sim.events import Event, Interrupt
from repro.sim.units import us
from repro.storage.redo import RedoRecord


class Replayer:
    """Drives redo application on one :class:`ReplicaStore`."""

    def __init__(self, env: Environment, store: ReplicaStore,
                 apply_ns_per_record: int = us(2), parallelism: int = 8):
        self.env = env
        self.store = store
        self.apply_ns_per_record = apply_ns_per_record
        self.parallelism = max(1, parallelism)
        self._queue: deque[list[RedoRecord]] = deque()
        self._wake: Event | None = None
        self.batches_replayed = 0
        #: Highest LSN handed to this replayer so far; WAL LSNs are dense
        #: sequential ints, so ``max_seen_lsn - store.applied_lsn`` is the
        #: exact number of received-but-unapplied records.
        self.max_seen_lsn = 0
        self._process = env.process(self._run(), name=f"replay:{store.name}")

    def enqueue(self, *batches: list[RedoRecord]) -> None:
        """Hand received batches to the replayer, in order (called by the
        DN's network handler on batch arrival).

        An idle replayer is woken through :meth:`Environment.resolve`: when
        the wake-up would be the next entry anyway, the replayer resumes
        inside this call and starts on the first batch. So the hand-off
        must be the running entry's last action: send the acks first.
        """
        queue = self._queue
        for records in batches:
            queue.append(records)
            if records and records[-1].lsn > self.max_seen_lsn:
                self.max_seen_lsn = records[-1].lsn
        wake = self._wake
        if batches and wake is not None and not wake.triggered:
            self.env.resolve(wake, True, None)

    @property
    def backlog_batches(self) -> int:
        return len(self._queue)

    def _run(self):
        try:
            while True:
                if not self._queue:
                    self._wake = Event(self.env)
                    yield self._wake
                    self._wake = None
                records = self._queue.popleft()
                started = self.env.now
                delay = round(len(records) * self.apply_ns_per_record
                              / self.parallelism)
                if delay:
                    yield self.env.timeout(delay)
                self.store.apply_batch(records)
                self.batches_replayed += 1
                if self.env.metrics_on:
                    metrics = self.env.metrics
                    node = self.store.name
                    metrics.counter("replay.batches", node=node).inc()
                    metrics.counter("replay.records",
                                    node=node).inc(len(records))
                    metrics.set_gauge("replay.backlog", len(self._queue),
                                      node=node)
                if self.env.trace_on:
                    tracer = self.env.tracer
                    tracer.complete("repl.replay", "batch", started,
                                    self.env.now,
                                    track=f"replay:{self.store.name}",
                                    records=len(records))
                if self.env.series_on:
                    series = self.env.series
                    node = self.store.name
                    series.gauge("repl.applied_lsn", self.store.applied_lsn,
                                 node=node)
                    series.gauge("repl.lag_records",
                                 self.max_seen_lsn - self.store.applied_lsn,
                                 node=node)
        except Interrupt:
            # The owning node stopped replaying (e.g. it was promoted to
            # primary); drain nothing further.
            pass
