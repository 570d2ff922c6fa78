"""Count-based (not timed) complexity tests for version-chain walks: how
many versions a write, a replayed write, a rollback and a vacuum look at
must not depend on how long the chain is, and how many a snapshot read or
a holdback check looks at may grow with its logarithm only."""

import math

import pytest

from repro.replication.replica import ReplicaStore
from repro.sim import Environment
from repro.storage import ColumnDef, Snapshot, StorageEngine, TableSchema
from repro.storage.heap import HeapTable, RowVersion
from repro.storage.redo import RedoCommit, RedoPendingCommit, RedoUpdate

KEY = (1,)


class CountingChain(list):
    """A version chain that counts the versions handed out or scanned."""

    visited = 0

    def __iter__(self):
        for version in list.__iter__(self):
            self.visited += 1
            yield version

    def __getitem__(self, index):
        found = list.__getitem__(self, index)
        self.visited += len(found) if isinstance(index, slice) else 1
        return found

    def __delitem__(self, index):
        before = len(self)
        list.__delitem__(self, index)
        self.visited += before - len(self)

    def __contains__(self, version):
        self.visited += len(self)
        return list.__contains__(self, version)

    def remove(self, version):
        self.visited += list.index(self, version) + 1
        list.remove(self, version)


def grown(length):
    """(engine, replica, next txid) with ``KEY``'s chain ``length`` long on
    both, each installed as a :class:`CountingChain`."""
    env = Environment()
    engine = StorageEngine(env, "dn")
    engine.create_table(TableSchema(
        "t", [ColumnDef("k", "int"), ColumnDef("v", "int")], ("k",)))
    engine.begin(1)
    engine.insert(1, "t", {"k": 1, "v": 0})
    engine.commit(1, 1)
    for txid in range(2, length + 1):
        engine.begin(txid)
        engine.update(txid, "t", KEY, {"v": txid})
        engine.commit(txid, txid)
    replica = ReplicaStore(env, "replica")
    replica.apply_batch(engine.wal.records_from(0))
    for store in (engine, replica):
        rows = store.table("t")._rows
        assert len(rows[KEY]) == length
        rows[KEY] = CountingChain(rows[KEY])
    return engine, replica, length + 1


def visits(length):
    """Versions visited by each operation on a chain ``length`` long."""
    engine, replica, txid = grown(length)
    chain = engine.table("t").versions(KEY)
    replica_chain = replica.table("t").versions(KEY)
    counts = {}

    engine.begin(txid)
    engine.update(txid, "t", KEY, {"v": -1})
    counts["update"] = chain.visited
    engine.update(txid, "t", KEY, {"v": -2})
    counts["update own write"] = chain.visited - counts["update"]
    chain.visited = 0
    engine.abort(txid)
    counts["rollback of two updates"] = chain.visited
    assert len(chain) == length

    replica.apply(RedoUpdate(txid=txid, table="t", key=KEY,
                             row={"k": 1, "v": -1}))
    replica.apply(RedoCommit(txid=txid, commit_ts=txid))
    counts["replayed update"] = replica_chain.visited
    assert len(replica_chain) == length + 1

    chain.visited = 0
    removed = engine.vacuum(retention_ns=0).versions_removed
    assert removed == length - 1 and len(chain) == 1
    counts["vacuum, beyond one per version reclaimed"] = chain.visited - removed
    return counts


def test_chain_walks_do_not_grow_with_the_chain():
    short, long = visits(64), visits(4096)
    assert short == long
    assert max(long.values()) <= 4, long


def read_probes(length):
    """Versions probed by snapshot reads at the newest, the middle and the
    oldest snapshot, and by a reader's holdback check while a transaction
    on another key sits in its commit window."""
    engine, replica, txid = grown(length)
    engine.begin(txid)
    engine.insert(txid, "t", {"k": 2, "v": 0})
    engine.log_pending_commit(txid)
    replica.apply_batch(engine.wal.records_from(replica.applied_lsn))
    assert engine._unresolved and replica.unresolved_count() == 1
    counts = {}
    for name, store in (("engine", engine), ("replica", replica)):
        chain = store.table("t").versions(KEY)
        for where, at in (("newest", length), ("middle", length // 2),
                          ("oldest", 1)):  # txid i committed at ts i
            chain.visited = 0
            assert store.read("t", KEY, Snapshot(at)) == {
                "k": 1, "v": at if at > 1 else 0}
            counts[f"{name} read at the {where} snapshot"] = chain.visited
        chain.visited = 0
        assert store.blocking_txid("t", KEY) is None
        counts[f"{name} holdback check"] = chain.visited
    return counts


def test_reads_and_holdback_checks_grow_with_the_log_of_the_chain():
    short, long = read_probes(64), read_probes(4096)
    growth = math.log2(4096 / 64)
    for name, probed in long.items():
        assert probed - short[name] <= growth, (name, short, long)
        assert probed <= math.log2(4096) + 4, (name, long)
    assert long["engine holdback check"] == long["replica holdback check"] == 1
    assert long["engine read at the newest snapshot"] <= 3


def test_row_versions_compare_by_identity():
    first = RowVersion(key=KEY, data={"k": 1}, xmin=7)
    twin = RowVersion(key=KEY, data={"k": 1}, xmin=7)
    assert first != twin and first == first
    heap = HeapTable("t")
    heap.add_version(first)
    heap.add_version(twin)  # newest first: [twin, first]
    heap.remove_version(first)
    assert [version is twin for version in heap.versions(KEY)] == [True]
    heap.remove_version(first)  # already gone: a no-op, twin stays
    assert heap.versions(KEY) == [twin]
    heap.remove_version(twin)
    assert KEY not in heap.keys()


@pytest.mark.parametrize("keep", [0, 1, 3])
def test_truncate_keeps_the_newest(keep):
    heap = HeapTable("t")
    versions = [RowVersion(key=KEY, data={"k": 1, "v": v}, xmin=v)
                for v in range(3)]
    for version in versions:
        heap.add_version(version)
    assert heap.truncate(KEY, keep) == 3 - keep
    assert heap.versions(KEY) == versions[::-1][:keep]
    assert (KEY in heap.keys()) == (keep > 0)
