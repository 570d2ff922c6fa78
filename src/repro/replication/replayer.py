"""Parallel redo replay on a replica.

Incoming batches queue behind each other; each batch costs
``apply_ns_per_record * len(batch) / parallelism`` of simulated time before
its records are applied. The paper highlights parallel replay as the reason
GlobalDB's replicas keep up with the primary; the ``parallelism`` knob lets
the ablation benchmarks show what serial replay would do to staleness.

The cost is timed, with one exception. A batch of row changes only
(:func:`~repro.storage.redo.row_changes_only`) that reaches an idle
replayer is applied when it arrives, and its cost is charged to
``busy_until`` instead: no reader can see an uncommitted version or waits
on one, so the early apply shows nowhere. A batch queued while that charge
runs starts when it ends, as it would behind a timed replay, and the
replayer is woken once, at the end of that batch's replay. So every other
batch (a commit window opening, an outcome, a heartbeat, DDL) is applied
at the instant it would be if every batch were timed, with the same
frontier, applied LSN and ``backlog_batches``, and each batch taken on
arrival saves its replay timer.
"""

from __future__ import annotations

from collections import deque

from repro.replication.replica import ReplicaStore
from repro.sim.core import Environment
from repro.sim.events import Event, Interrupt
from repro.sim.units import us
from repro.storage.redo import RedoRecord, row_changes_only


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
        #: End of the replay cost charged for batches applied on arrival.
        #: The charge runs through that instant, as the timed replay it
        #: stands for would until its entry ran; the next queued batch
        #: starts when it ends.
        self._busy_until = -1
        #: When the queue's head starts replay, if the replayer's wake-up
        #: was scheduled for the end of that replay (see :meth:`enqueue`).
        self._head_starts: int | None = None
        self.batches_replayed = 0
        #: Highest LSN handed to this replayer so far; WAL LSNs are dense
        #: sequential ints, so ``max_seen_lsn - store.applied_lsn`` is the
        #: exact number of received-but-unapplied records.
        self.max_seen_lsn = 0
        self._process = env.process(self._run(), name=f"replay:{store.name}")

    def enqueue(self, *batches: list[RedoRecord]) -> None:
        """Hand received batches to the replayer, in order (called by the
        DN's network handler on batch arrival).

        A batch of row changes only is applied here when the replayer is
        idle (suspended, with nothing queued and no charge running) and
        :meth:`Environment.tick_drained` holds: the wake-up would have
        resumed it in place, so nothing in this tick could have seen the
        batch queued. Its cost is charged to ``busy_until``.

        Any other batch is queued. An idle replayer is then woken through
        :meth:`Environment.resolve`: when the wake-up would be the next
        entry anyway, the replayer resumes inside this call and starts on
        the first batch. So the hand-off must be the running entry's last
        action: send the acks first. A replayer still under a charge is
        instead woken when the head's replay would end, one entry in place
        of the timed replay the charge saved and the head's own.
        """
        env = self.env
        queue = self._queue
        wake = self._wake
        for records in batches:
            if records and records[-1].lsn > self.max_seen_lsn:
                self.max_seen_lsn = records[-1].lsn
            if (not queue and wake is not None and not wake.triggered
                    and self._busy_until < env.now and env.tick_drained()
                    and row_changes_only(records)):
                cost = self._cost(records)
                if cost:
                    self._busy_until = env.now + cost
                self._applied(records, env.now, env.now + cost)
            else:
                queue.append(records)
        if not queue or wake is None or wake.triggered:
            return
        if self._busy_until >= env.now:
            self._head_starts = self._busy_until
            self._busy_until += self._cost(queue[0])
            wake._ok = True
            env.schedule(wake, self._busy_until - env.now)
        else:
            env.resolve(wake, True, None)

    def clear(self) -> None:
        """Drop every queued batch (a rebuild replaced the store)."""
        self._queue.clear()
        self._head_starts = None

    @property
    def backlog_batches(self) -> int:
        """Batches received and not yet started."""
        queued = len(self._queue)
        if (queued and self._head_starts is not None
                and self.env.now >= self._head_starts):
            queued -= 1
        return queued

    def _cost(self, records: list[RedoRecord]) -> int:
        return round(len(records) * self.apply_ns_per_record
                     / self.parallelism)

    def _run(self):
        env = self.env
        queue = self._queue
        try:
            while True:
                started = None
                if not queue:
                    self._wake = Event(env)
                    yield self._wake
                    self._wake = None
                    # Set when the wake-up came at the end of the head's
                    # replay: its cost is waited out already.
                    started, self._head_starts = self._head_starts, None
                    if not queue:
                        continue  # a rebuild dropped the queue meanwhile
                records = queue.popleft()
                if started is None:
                    started = env.now
                    delay = self._cost(records)
                    if delay:
                        yield env.timeout(delay)
                self._applied(records, started, env.now)
        except Interrupt:
            # The owning node stopped replaying (e.g. it was promoted to
            # primary); drain nothing further.
            pass

    def _applied(self, records: list[RedoRecord], started: int,
                 finished: int) -> None:
        """Apply ``records``, whose replay runs from ``started`` to
        ``finished``, and record it."""
        self.store.apply_batch(records)
        self.batches_replayed += 1
        env = self.env
        if env.metrics_on:
            metrics = env.metrics
            node = self.store.name
            metrics.counter("replay.batches", node=node).inc()
            metrics.counter("replay.records", node=node).inc(len(records))
            metrics.set_gauge("replay.backlog", len(self._queue), node=node)
        if env.trace_on:
            env.tracer.complete("repl.replay", "batch", started, finished,
                                track=f"replay:{self.store.name}",
                                records=len(records))
        if env.series_on:
            series = env.series
            node = self.store.name
            series.gauge("repl.applied_lsn", self.store.applied_lsn,
                         node=node)
            series.gauge("repl.lag_records",
                         self.max_seen_lsn - self.store.applied_lsn,
                         node=node)
