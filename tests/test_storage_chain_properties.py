"""Property-based chain-walk tests: the early-exit walks on the write and
replay paths return the very version a full scan of the chain would.

The reference implementations below are the pre-early-exit code, kept here
only: they look at every version of the chain and pick by commit
timestamp, relying on no ordering of the chain at all. A write never
targets a version its own transaction ended. The primary applies each
write through replay's handler, and the version it hands over is the one
replay's own lookup (``_current_unended``) would find. The histories come
from ``test_vacuum_properties.build_history`` — lock-disciplined, with
aborts, 2PC, interleaved vacuum (frozen ``xmin=0``, clog-pruned ``xmax``)
and one multi-statement transaction that may stay in flight. The same
histories are held to the ordering a bisecting snapshot read leans on, on
the engine and at every WAL prefix a replica passes through.
"""

from hypothesis import given, strategies as st

from repro.errors import DuplicateKeyError
from repro.replication.replica import ReplicaStore
from repro.storage import Snapshot, StorageEngine
from repro.storage.clog import TxnStatus
from test_vacuum_properties import build_history

KEYS = range(1, 4)  # few keys: long chains and contended rows

history_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.sampled_from(["upsert"] * 5 + ["delete"] * 2
                              + ["insert", "vacuum", "finish"]),
              st.sampled_from(["commit"] * 3 + ["hold"] * 3
                              + ["abort", "prepare_commit", "prepare_abort"])),
    min_size=10, max_size=80)


def reference_latest_committed(clog, chain, txid):
    """Full scan: the committed version with the largest commit timestamp
    that neither a committed transaction nor ``txid`` has ended."""
    best = None
    best_ts = -1
    for version in chain:
        created_ts = clog.commit_ts(version.xmin)
        if created_ts is None or version.xmax == txid:
            continue
        if version.xmax is not None:
            end_status = (clog.status(version.xmax)
                          if clog.known(version.xmax) else TxnStatus.COMMITTED)
            if end_status is TxnStatus.COMMITTED:
                continue
        if created_ts > best_ts:
            best = version
            best_ts = created_ts
    return best


def reference_write_target(clog, chain, txid):
    for version in chain:
        if version.xmin == txid and version.xmax is None:
            return version
    return reference_latest_committed(clog, chain, txid)


def reference_insert_verdict(clog, chain, txid):
    """None if an insert by ``txid`` is accepted, else the error's gist.
    A key the transaction itself wrote is as much a duplicate as a
    committed one (accepting it would leave two live versions)."""
    if reference_write_target(clog, chain, txid) is not None:
        return "duplicate key"
    for version in chain:
        status = (clog.status(version.xmin) if clog.known(version.xmin)
                  else TxnStatus.COMMITTED)
        if (status in (TxnStatus.IN_PROGRESS, TxnStatus.PREPARED)
                and version.xmin != txid and version.xmax is None):
            return "concurrent insert"
    return None


def reference_superseded(chain, txid):
    """Full scan: the transaction's own un-ended version wherever it is,
    else the first un-ended foreign one."""
    fallback = None
    for version in chain:
        if version.xmax is not None:
            continue
        if version.xmin == txid:
            return version
        if fallback is None:
            fallback = version
    return fallback


class CheckedEngine(StorageEngine):
    """Asserts every write-target walk and insert verdict against the
    full-scan references, and that each version a write hands to replay's
    handler is the one replay would find."""

    def current_for_write(self, heap, key, txid):
        found = super().current_for_write(heap, key, txid)
        assert found is reference_write_target(
            self.clog, heap.versions(key), txid)
        return found

    def insert(self, txid, table, row):
        chain = self.table(table).versions(self.catalog.table(table).key_of(row))
        verdict = reference_insert_verdict(self.clog, chain, txid)
        try:
            super().insert(txid, table, row)
        except DuplicateKeyError as exc:
            assert verdict is not None and verdict in str(exc)
            raise
        assert verdict is None

    def _apply_update(self, record, old=None):
        assert old is self._current_unended(self.table(record.table),
                                            record.key)
        super()._apply_update(record, old)

    def _apply_delete(self, record, old=None):
        assert old is self._current_unended(self.table(record.table),
                                            record.key)
        super()._apply_delete(record, old)


class CheckedReplica(ReplicaStore):
    """Asserts the version each replayed write supersedes."""

    replaying = None

    def apply(self, record):
        self.replaying = record.txid
        super().apply(record)

    def _current_unended(self, heap, key):
        found = super()._current_unended(heap, key)
        assert found is reference_superseded(heap.versions(key),
                                             self.replaying)
        return found


def assert_snapshot_order(clog, chain):
    """What a bisecting snapshot read (``heap._snapshot_suffix``) leans
    on: below the head region, whatever a snapshot could see — a version
    its own creator did not end — has a committed creator, and those
    commit timestamps never ascend going down the chain."""
    in_head, floor = True, None
    for version in chain:
        ts = clog.commit_ts(version.xmin)
        if in_head and ts is None:
            continue
        in_head = False
        if version.xmin == version.xmax:
            continue  # invisible to every snapshot; may be out of order
        assert ts is not None, (version, "in flight below a committed one")
        assert floor is None or ts <= floor, (version, ts, floor)
        floor = ts


class TestChainWalkProperties:
    @given(operations=history_strategy,
           vacuum_every=st.integers(1, 12), retention_steps=st.integers(0, 3))
    def test_early_exit_is_the_full_scan_answer(self, operations,
                                                vacuum_every, retention_steps):
        engine, _max_ts = build_history(operations, engine_cls=CheckedEngine)
        heap = engine.table("t")
        in_flight = list(engine._undo)
        for key in KEYS:
            for txid in [-1, *in_flight]:  # -1: a transaction with no writes
                engine.current_for_write(heap, (key,), txid)
            assert_snapshot_order(engine.clog, heap.versions((key,)))

        replica = CheckedReplica(engine.env, "replica")
        for index, record in enumerate(engine.wal.records_from(0), start=1):
            replica.apply(record)
            if index % vacuum_every == 0:
                replica.vacuum(retention_ns=retention_steps * 10)
            if replica.catalog.has_table("t"):
                for key in KEYS:  # every prefix of the WAL, not only the end
                    assert_snapshot_order(
                        replica.clog, replica.table("t").versions((key,)))
        # The replica followed the same chains: it reads what the primary
        # reads at the newest snapshot both can serve.
        snapshot = Snapshot(replica.max_commit_ts)
        for key in KEYS:
            assert (replica.read("t", (key,), snapshot)
                    == engine.read("t", (key,), snapshot))
