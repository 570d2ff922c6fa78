"""MVCC garbage collection (vacuum).

Version chains and the commit log grow with every update; long-running
clusters need dead-version reclamation. The vacuum rule, for a *horizon*
timestamp below which no new snapshot will ever read again:

- per key, keep the newest version whose creator committed at or below the
  horizon (it is what any snapshot >= horizon still sees under the chain's
  committed prefix), plus everything newer and everything not yet
  resolved; drop the older tail;
- if that horizon-visible version was itself deleted at or below the
  horizon, the whole tail below the deletion is dead;
- surviving versions whose creator committed at or below the horizon are
  *frozen* (``xmin`` rewritten to the bulk-load id 0), detaching them from
  the commit log so that committed/aborted clog entries at or below the
  horizon can be pruned.

A store vacuums against its frontier (``max_commit_ts``) minus the
retention: on a replica that is the applied frontier, which keeps every
snapshot the RCP can still hand out readable. Reads below the horizon are
the caller's responsibility (the classic "snapshot too old" contract).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.storage.clog import CommitLog, TxnStatus
from repro.storage.heap import HeapTable


@dataclass
class VacuumStats:
    """Result of one vacuum pass."""

    versions_removed: int = 0
    versions_frozen: int = 0
    clog_pruned: int = 0

    def merge(self, other: "VacuumStats") -> None:
        self.versions_removed += other.versions_removed
        self.versions_frozen += other.versions_frozen
        self.clog_pruned += other.clog_pruned


def _commit_ts_of(clog: CommitLog, txid: int) -> int | None:
    """Commit timestamp of ``txid``; 1 for the frozen bulk-load id."""
    if txid == 0:
        return 1
    return clog.commit_ts(txid)


def vacuum_heap(heap: HeapTable, clog: CommitLog, horizon: int) -> VacuumStats:
    """Vacuum one table. Safe against in-flight transactions: versions
    whose creator or deleter is unresolved are always retained."""
    stats = VacuumStats()
    for key in list(heap.keys()):
        for keep, anchor in enumerate(heap.versions(key)):
            created = _commit_ts_of(clog, anchor.xmin)
            if created is not None and created <= horizon:
                break  # the horizon-visible version; all above it stay
        else:
            continue  # every version is above the horizon or unresolved
        ended = None if anchor.xmax is None else _commit_ts_of(clog, anchor.xmax)
        if ended is None or ended > horizon:
            # Still visible at the horizon: keep it, frozen so that its
            # clog entry becomes prunable. Nothing above it needs freezing.
            keep += 1
            if anchor.xmin != 0:
                anchor.xmin = 0
                stats.versions_frozen += 1
        stats.versions_removed += heap.truncate(key, keep)
    return stats


def prune_clog(clog: CommitLog, horizon: int) -> int:
    """Drop resolved commit-log entries no frozen/removed version needs:
    committed at or below the horizon, or aborted (aborted effects are
    physically undone at abort time, so nothing references them)."""
    doomed = []
    for txid, record in clog._records.items():
        if txid == 0:
            continue  # the bulk-load/frozen id stays
        if record.status is TxnStatus.ABORTED:
            doomed.append(txid)
        elif (record.status is TxnStatus.COMMITTED
                and record.commit_ts is not None
                and record.commit_ts <= horizon):
            doomed.append(txid)
    for txid in doomed:
        del clog._records[txid]
        clog._commit_ts.pop(txid, None)
    return len(doomed)


def vacuum_tables(tables: typing.Mapping[str, HeapTable], clog: CommitLog,
                  horizon: int) -> VacuumStats:
    """Vacuum every table then prune the commit log."""
    stats = VacuumStats()
    if horizon <= 1:
        return stats
    # Frozen versions carry xmin=0: make sure the commit log resolves it
    # (engines that never bulk-loaded have no entry for it yet).
    clog.ensure(0)
    if clog.status(0) is not TxnStatus.COMMITTED:
        clog.commit(0, 1)
    for heap in tables.values():
        stats.merge(vacuum_heap(heap, clog, horizon))
    stats.clog_pruned = prune_clog(clog, horizon)
    return stats
