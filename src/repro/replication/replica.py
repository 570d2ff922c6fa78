"""A shard's store built in the replica role.

A replica's MVCC state and redo application are the primary's class,
:class:`~repro.storage.engine.StorageEngine`, driven by
:class:`~repro.replication.replayer.Replayer`. :class:`ReplicaStore` adds
only the safe-time wait: a read above the applied frontier
(``max_commit_ts``, what the RCP collector polls, §IV-A) blocks until
replay reaches it. So every frontier move replay or bulk load makes wakes
the waiters and samples the ``repl.applied_ts`` gauge; after promotion
the primary write path moves the frontier without publishing.
"""

from __future__ import annotations

from repro.sim.core import Environment
from repro.sim.events import Event
from repro.storage.engine import StorageEngine


class ReplicaStore(StorageEngine):
    """A :class:`StorageEngine` with the replica's safe-time wait."""

    def __init__(self, env: Environment, name: str):
        super().__init__(env, name)
        # (threshold_ts, event) per reader waiting for the frontier.
        self._frontier_waiters: list[tuple[int, Event]] = []

    def _note_applied(self, commit_ts: int) -> None:
        if commit_ts > self.max_commit_ts:
            self.max_commit_ts = commit_ts
            if self.env.series_on:
                self.env.series.gauge("repl.applied_ts", commit_ts,
                                      node=self.name)
            if self._frontier_waiters:
                still_waiting = []
                for threshold, event in self._frontier_waiters:
                    if threshold <= commit_ts:
                        if not event.triggered:
                            event.succeed(commit_ts)
                    else:
                        still_waiting.append((threshold, event))
                self._frontier_waiters = still_waiting

    def wait_frontier(self, read_ts: int):
        """Generator: suspend until the applied frontier reaches ``read_ts``.

        This is the replica's safe-time wait: a read at a snapshot the
        replica has not fully replayed yet blocks instead of returning a
        hole. Combined with the RCP (which never exceeds any polled
        replica's frontier) the wait is normally zero; it only bites when
        routing raced a metrics refresh or a replica fell behind.
        """
        while self.max_commit_ts < read_ts:
            event = Event(self.env)
            self._frontier_waiters.append((read_ts, event))
            yield event
        return self.max_commit_ts
