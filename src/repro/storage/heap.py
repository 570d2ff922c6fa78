"""MVCC heap table.

Rows are immutable versions chained per primary key, newest first. A version
records the transaction that created it (``xmin``) and, once superseded or
deleted, the transaction that ended it (``xmax``). Outcomes live in the
commit log; the heap only stores ids, so replaying a commit record on a
replica instantly flips the visibility of all that transaction's versions
without touching them.

Chain invariant. Within one key's chain, newest first: the versions of the
(at most one) transaction in flight on the key come first, its un-ended
write at the head; then the committed versions in commit order, of which
only the newest can be un-ended — every older one was ended by the creator
of the version above it. An aborted transaction leaves nothing behind. The
heap does not enforce this; its writers do. On a primary the row lock
serializes writers of a key (and ``StorageEngine.insert`` refuses a key with
a live or un-ended in-flight version); on a replica redo is applied in LSN
order, which replays the primary's order. Write, replay and vacuum walks
rely on it to stop at the first version that decides their answer instead
of scanning the chain, and a snapshot read of a long chain bisects the
committed region by commit timestamp (:func:`_snapshot_suffix`). Only a
version no snapshot can see may lie out of order below a committed one: one
its own creator ended (a lock-free insert can land above such a run while
its transaction is in flight) or one whose creator never commits (an orphan
a promotion left behind).

Image immutability. Once a dict is a version's ``data`` nobody mutates it:
the same dict is the redo record's after-image and the ``data`` of every
replica's copy of the version — one image per version in the whole process.
A dict is copied only where it crosses to code that may edit it:
``GlobalDB.bulk_load`` and ``StorageEngine.insert`` on the way in,
``Session`` reads on the way out.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.clog import CommitLog
from repro.storage.snapshot import Snapshot


@dataclass(slots=True, eq=False)
class RowVersion:
    """One version of a row. Versions are chain nodes: they compare by
    identity, never by field values."""

    key: tuple
    data: dict
    xmin: int
    xmax: int | None = None

    def __repr__(self) -> str:
        return f"<RowVersion {self.key} xmin={self.xmin} xmax={self.xmax}>"


def _created_visible(version: RowVersion, snapshot: Snapshot, clog: CommitLog) -> bool:
    if snapshot.txid is not None and version.xmin == snapshot.txid:
        return True
    return clog.is_committed_before(version.xmin, snapshot.read_ts)


def _ended_visible(version: RowVersion, snapshot: Snapshot, clog: CommitLog) -> bool:
    if version.xmax is None:
        return False
    if snapshot.txid is not None and version.xmax == snapshot.txid:
        return True
    return clog.is_committed_before(version.xmax, snapshot.read_ts)


def version_visible(version: RowVersion, snapshot: Snapshot, clog: CommitLog) -> bool:
    """The MVCC visibility rule."""
    return (_created_visible(version, snapshot, clog)
            and not _ended_visible(version, snapshot, clog))


#: Chains up to this long are walked; longer ones are bisected first.
_WALK_MAX = 16


def _snapshot_suffix(versions, read_ts: int, committed: dict):
    """What a read at ``read_ts`` still has to look at in a long chain: the
    head region (creators not committed: an own write is there or nowhere)
    and everything from the first version committed at or before
    ``read_ts``, found by bisecting the committed region. The whole chain
    when a probe cannot be ordered against what lies above it: it has no
    commit timestamp, or is self-ended and newer than ``read_ts``."""
    end = hi = len(versions)
    head = 0
    while head < end and versions[head].xmin not in committed:
        head += 1
    if head == end or committed[versions[head].xmin] <= read_ts:
        return versions  # a current snapshot: nothing to skip
    lo = head + 1
    while lo < hi:
        mid = (lo + hi) // 2
        version = versions[mid]
        ts = committed.get(version.xmin)
        if ts is None or (ts > read_ts and version.xmin == version.xmax):
            return versions
        if ts <= read_ts:
            hi = mid
        else:
            lo = mid + 1
    return map(versions.__getitem__,
               itertools.chain(range(head), range(lo, end)))


def _first_visible(versions, read_ts: int, own, committed: dict,
                   memo: dict) -> RowVersion | None:
    """First visible version in a newest-first chain, with memoized
    commit-before-``read_ts`` decisions.

    This is :func:`version_visible` unrolled against the commit log's
    ``txid -> commit_ts`` table, caching each transaction's verdict in
    ``memo``. The memo is only sound while the commit log cannot change —
    i.e. within a single simulation event. Every caller (scans, index
    lookups) materializes its result eagerly inside one data-node handler
    invocation, which is what makes per-snapshot caching safe here: a
    transaction committing *between* events would otherwise flip a cached
    False.
    """
    if len(versions) > _WALK_MAX:
        versions = _snapshot_suffix(versions, read_ts, committed)
    for version in versions:
        xmin = version.xmin
        if xmin != own:
            visible = memo.get(xmin)
            if visible is None:
                ts = committed.get(xmin)
                memo[xmin] = visible = ts is not None and ts <= read_ts
            if not visible:
                continue
        xmax = version.xmax
        if xmax is not None:
            if xmax == own:
                continue
            ended = memo.get(xmax)
            if ended is None:
                ts = committed.get(xmax)
                memo[xmax] = ended = ts is not None and ts <= read_ts
            if ended:
                continue
        return version
    return None


class HeapTable:
    """Version store for one table on one shard."""

    def __init__(self, name: str):
        self.name = name
        # key -> versions, newest first.
        self._rows: dict[tuple, list[RowVersion]] = {}
        # secondary indexes: column -> value -> set of keys (approximate:
        # contains keys of *any* version with that value; visibility is
        # re-checked at read time).
        self._indexes: dict[str, dict[typing.Any, set]] = {}

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        if column in self._indexes:
            raise StorageError(f"index on {self.name}.{column} already exists")
        index: dict[typing.Any, set] = {}
        for key, versions in self._rows.items():
            for version in versions:
                value = version.data.get(column)
                keys = index.get(value)
                if keys is None:
                    index[value] = keys = set()
                keys.add(key)
        self._indexes[column] = index

    def drop_index(self, column: str) -> None:
        if column not in self._indexes:
            raise StorageError(f"no index on {self.name}.{column}")
        del self._indexes[column]

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    def _index_add(self, version: RowVersion) -> None:
        for column, index in self._indexes.items():
            value = version.data.get(column)
            keys = index.get(value)
            if keys is None:
                index[value] = keys = set()
            keys.add(version.key)

    # ------------------------------------------------------------------
    # Version chain operations (no visibility logic here)
    # ------------------------------------------------------------------
    def versions(self, key: tuple) -> list[RowVersion]:
        return self._rows.get(key, [])

    def add_version(self, version: RowVersion) -> None:
        """Prepend a new version for its key (newest first)."""
        chain = self._rows.get(version.key)
        if chain is None:
            self._rows[version.key] = [version]
        else:
            chain.insert(0, version)
        self._index_add(version)

    def remove_version(self, version: RowVersion) -> None:
        """Physically remove this version object (rollback of an aborted
        write, which finds it at the head of its chain)."""
        chain = self._rows.get(version.key)
        if chain is not None:
            try:
                chain.remove(version)
            except ValueError:
                return
            if not chain:
                del self._rows[version.key]

    def truncate(self, key: tuple, keep: int) -> int:
        """Drop all but the newest ``keep`` versions of ``key`` (vacuum);
        returns how many were dropped."""
        chain = self._rows[key]
        dropped = len(chain) - keep
        del chain[keep:]
        if not chain:
            del self._rows[key]
        return dropped

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key: tuple, snapshot: Snapshot, clog: CommitLog) -> dict | None:
        """The visible row for ``key``, or None."""
        versions = self._rows.get(key)
        if versions is None:
            return None
        version = _first_visible(versions, snapshot.read_ts, snapshot.txid,
                                 clog._commit_ts, {})
        return None if version is None else version.data

    def visible_version(self, key: tuple, snapshot: Snapshot,
                        clog: CommitLog) -> RowVersion | None:
        versions = self._rows.get(key)
        if versions is None:
            return None
        return _first_visible(versions, snapshot.read_ts, snapshot.txid,
                              clog._commit_ts, {})

    def scan(self, snapshot: Snapshot, clog: CommitLog,
             predicate: typing.Callable[[dict], bool] | None = None
             ) -> typing.Iterator[dict]:
        """Yield every visible row (optionally filtered).

        Visibility verdicts are cached per transaction id for the duration
        of the scan (see :func:`_first_visible`), so a TPC-C stock scan
        decides each bulk-load/committing transaction once instead of once
        per version. Callers must consume the iterator within the event
        that created it — data-node handlers materialize it eagerly."""
        read_ts = snapshot.read_ts
        own = snapshot.txid
        committed = clog._commit_ts
        memo: dict[int, bool] = {}
        for versions in self._rows.values():
            version = _first_visible(versions, read_ts, own, committed, memo)
            if version is not None:
                if predicate is None or predicate(version.data):
                    yield version.data

    def lookup_index(self, column: str, value: typing.Any, snapshot: Snapshot,
                     clog: CommitLog) -> list[dict]:
        """Equality lookup via a secondary index."""
        index = self._indexes.get(column)
        if index is None:
            raise StorageError(f"no index on {self.name}.{column}")
        rows = []
        read_ts = snapshot.read_ts
        own = snapshot.txid
        committed = clog._commit_ts
        memo: dict[int, bool] = {}
        # Sorted, not set order: bucket iteration order decides result-row
        # order (e.g. TPC-C pay-by-lastname picks the middle row), and set
        # order follows PYTHONHASHSEED — same bug class as locks.py PR 1.
        for key in sorted(index.get(value, ()), key=repr):
            version = _first_visible(self._rows.get(key, ()), read_ts, own,
                                     committed, memo)
            if version is not None and version.data.get(column) == value:
                rows.append(version.data)
        return rows

    def keys(self) -> typing.Iterator[tuple]:
        return iter(self._rows)

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._rows.values())

    def __len__(self) -> int:
        """Number of keys with at least one version (not visibility-aware)."""
        return len(self._rows)
