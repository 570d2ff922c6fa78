"""The Replica Consistency Point (§IV-A, Fig. 4).

Each replica tracks the maximum commit timestamp it has applied. The RCP is
the minimum of those maxima across all polled replicas: every transaction
with a commit timestamp at or below the RCP is fully available on every
replica (with the ``PENDING_COMMIT``/``PREPARE`` holdback covering records
that are present but unresolved). Reads at the RCP are therefore consistent
across shards even though each shard replays independently.

An elected collector CN polls the replicas, computes the RCP, and
distributes it to the other CNs at its site; the role and its polling
round live in :class:`repro.ror.control.ControlPlane`. Distribution through
a single collector keeps the RCP monotonic from every client's perspective
even when clients are re-routed between CNs (load balancing, failover). If
the collector dies, the next CN in deterministic order takes over.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass


def compute_rcp(max_commit_ts_by_replica: typing.Mapping[str, int]) -> int:
    """Fig. 4's rule: min over replicas of (max applied commit timestamp)."""
    if not max_commit_ts_by_replica:
        return 0
    return min(max_commit_ts_by_replica.values())


@dataclass
class RcpState:
    """A CN's view of the RCP (monotonically non-decreasing)."""

    rcp: int = 0
    updated_at: int = 0
    collector: str = ""
    updates_received: int = 0
    regressions_ignored: int = 0

    def update(self, rcp: int, now: int, collector: str) -> None:
        self.updates_received += 1
        self.collector = collector
        self.updated_at = now
        if rcp >= self.rcp:
            self.rcp = rcp
        else:
            # A lagging or newly-elected collector may briefly report an
            # older value; clients must never observe the RCP move backward.
            self.regressions_ignored += 1

    def age_ns(self, now: int) -> int:
        return now - self.updated_at
