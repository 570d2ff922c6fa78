"""Replication policies and commit-time ack tracking.

The paper's GaussDB baseline commits only after a quorum of replicas has
persisted the redo (optionally requiring remote-region replicas, which is
what protects against regional disasters but costs WAN round trips).
GlobalDB's headline configuration is fully asynchronous. Policies:

- ``async_()`` — commit immediately; replicas catch up later.
- ``quorum(k)`` — wait for ``k`` replica acks, any location.
- ``kind="same_city"`` — wait for ``k`` acks from same-region replicas
  (survives a node loss, not a regional disaster).
- ``remote_quorum(k)`` — wait for ``k`` acks including at least one from a
  different region (survives a regional disaster; the slow baseline in
  Fig. 6a).

A replica acks a batch on receipt, with the highest LSN of its contiguous
prefix and its applied LSN. It acks only batches someone waits on: a
batch of row changes only goes unacked, because a commit waits on its
outcome record's LSN, never on a row change's. The prefix rule makes that
enough: an ack for LSN ``n`` covers every record up to ``n``, so the batch
holding a commit record acks all the row changes before it, and a
heartbeat or DDL batch does the same for an idle shard's WAL truncation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.sim.core import Environment
from repro.sim.events import Event


@dataclass(frozen=True)
class ReplicationPolicy:
    """How long a commit must wait for replica acknowledgements."""

    kind: str  # "async" | "quorum" | "same_city" | "remote"
    count: int = 0

    @classmethod
    def async_(cls) -> "ReplicationPolicy":
        return cls(kind="async")

    @classmethod
    def quorum(cls, count: int = 1) -> "ReplicationPolicy":
        return cls(kind="quorum", count=count)

    @classmethod
    def remote_quorum(cls, count: int = 1) -> "ReplicationPolicy":
        return cls(kind="remote", count=count)

    @property
    def synchronous(self) -> bool:
        return self.kind != "async"


@dataclass
class _Waiter:
    lsn: int
    event: Event
    policy: ReplicationPolicy


class AckTracker:
    """Tracks per-replica acked LSNs for one primary and wakes commit
    waiters once their policy is satisfied."""

    def __init__(self, env: Environment, primary_region: str,
                 replica_regions: typing.Mapping[str, str]):
        self.env = env
        self.primary_region = primary_region
        #: replica endpoint name -> region
        self.replica_regions = dict(replica_regions)
        self.acked: dict[str, int] = {name: 0 for name in self.replica_regions}
        #: replica endpoint name -> highest *applied* (replayed) LSN it has
        #: reported. Lags ``acked`` (receipt); its minimum bounds how much
        #: WAL prefix the primary may truncate.
        self.applied: dict[str, int] = {name: 0 for name in self.replica_regions}
        self._waiters: list[_Waiter] = []
        # Shared pre-settled event for waits that are satisfied on arrival
        # (async policy, or a quorum already met). Yielding it resumes the
        # process inline without touching the event queue, so async-policy
        # commits cost zero kernel events here.
        done = Event(env)
        done._ok = True
        done._value = True
        done.callbacks = None
        self._done = done

    def add_replica(self, name: str, region: str) -> None:
        self.replica_regions[name] = region
        self.acked.setdefault(name, 0)
        self.applied.setdefault(name, 0)

    def on_ack(self, replica: str, lsn: int, applied_lsn: int = 0) -> None:
        """A replica acknowledged persistence up to ``lsn`` (and, when the
        ack carries it, replay up to ``applied_lsn``): :meth:`record` it,
        then :meth:`release` the commits it satisfies. The release may
        resume a commit in place, so it must be the running entry's last
        action; a caller with more to do calls the two halves itself."""
        self.record(replica, lsn, applied_lsn)
        self.release()

    def record(self, replica: str, lsn: int, applied_lsn: int = 0) -> None:
        """Raise ``replica``'s acked and applied watermarks."""
        if lsn > self.acked.get(replica, 0):
            self.acked[replica] = lsn
        if applied_lsn > self.applied.get(replica, 0):
            self.applied[replica] = applied_lsn

    def release(self) -> None:
        """Wake the commit waiters the recorded acks now satisfy. A lone
        one goes through :meth:`Environment.resolve`, which resumes it
        here when its wake-up would be the next entry anyway; several are
        pushed with ``succeed`` in list order (after the first push none
        could be resumed in place)."""
        if not self._waiters:
            return
        still_waiting, ready = [], []
        for waiter in self._waiters:
            if self._satisfied(waiter.lsn, waiter.policy):
                if not waiter.event.triggered:
                    ready.append(waiter.event)
            else:
                still_waiting.append(waiter)
        self._waiters = still_waiting
        if len(ready) == 1:
            self.env.resolve(ready[0], True, True)
            return
        for event in ready:
            event.succeed(True)

    def wait_for(self, lsn: int, policy: ReplicationPolicy) -> Event:
        """Event that fires once ``policy`` is satisfied for ``lsn``.

        Fires immediately for async policies or already-satisfied quorums —
        those return a shared pre-settled event instead of allocating and
        scheduling a fresh one per commit.
        """
        if not policy.synchronous or self._satisfied(lsn, policy):
            return self._done
        event = Event(self.env)
        self._waiters.append(_Waiter(lsn=lsn, event=event, policy=policy))
        return event

    def _satisfied(self, lsn: int, policy: ReplicationPolicy) -> bool:
        if not policy.synchronous:
            return True
        acked_names = [name for name, acked in self.acked.items() if acked >= lsn]
        if policy.kind == "quorum":
            return len(acked_names) >= policy.count
        if policy.kind == "same_city":
            same = [name for name in acked_names
                    if self.replica_regions[name] == self.primary_region]
            return len(same) >= policy.count
        if policy.kind == "remote":
            remote = [name for name in acked_names
                      if self.replica_regions[name] != self.primary_region]
            return len(acked_names) >= policy.count and len(remote) >= 1
        raise ValueError(f"unknown policy kind {policy.kind!r}")

    def min_applied_lsn(self) -> int:
        """Lowest applied LSN across replicas — the WAL truncation floor."""
        if not self.applied:
            return 0
        return min(self.applied.values())
