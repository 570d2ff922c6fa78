"""A restart is a base image plus redo.

A rebuild seeds a replica with :meth:`StorageEngine.copy_into` and then
replays the primary's WAL from the copy's tail; a restart from a base
backup would do the same. The property: for any lock-disciplined history
(``test_vacuum_properties.build_history``, with aborts, 2PC and an open
multi-statement transaction) and any cut in it, including one inside a
commit window, ``WAL[a..b]`` applied to the image copied at ``a - 1``
leaves the store the primary holds at ``b``. Stores are compared by
``test_workload_outcomes.store_fields`` plus what in-flight transactions
leave behind: their undo lists by value and the commit-window holdback.
"""

import itertools

from hypothesis import given, strategies as st

from repro.replication.replica import ReplicaStore
from test_vacuum_properties import build_history
from test_workload_outcomes import store_fields

# No vacuum: it is not logged, so it would run on the primary only.
history_strategy = st.lists(
    st.tuples(st.sampled_from(range(1, 4)),
              st.sampled_from(["upsert"] * 5 + ["delete"] * 2
                              + ["insert", "finish"]),
              st.sampled_from(["commit"] * 3 + ["hold"] * 3
                              + ["abort", "prepare_commit", "prepare_abort"])),
    min_size=1, max_size=60)


def _by_value(version):
    if version is None:
        return None
    return (version.key, version.xmin, version.xmax,
            sorted(version.data.items()))


def restart_state(store) -> tuple:
    """:func:`store_fields` with in-flight undo and the holdback. A
    transaction that has written nothing logs nothing, so only the node it
    began on knows it: such commit-log entries are left out."""
    tables, max_ddl_ts, clog, frontier = store_fields(store)
    clog = [entry for entry in clog
            if entry[1] != "IN_PROGRESS" or entry[0] in store._undo]
    in_flight = sorted(
        (txid, [(kind, heap.name, _by_value(version), _by_value(old))
                for kind, heap, version, old in entries])
        for txid, entries in store._undo.items())
    return (tables, max_ddl_ts, clog, frontier, in_flight,
            sorted(store._unresolved))


@given(operations=history_strategy, cut=st.integers(0, 80))
def test_copy_plus_tail_is_the_primary(operations, cut):
    copies = []
    steps = itertools.count()

    def on_step(engine):
        if next(steps) == cut:
            copies.append(ReplicaStore(engine.env, "copy"))
            engine.copy_into(copies[0])
            assert restart_state(copies[0]) == restart_state(engine)

    primary, _max_ts = build_history(operations, on_step=on_step)
    if not copies:
        copies.append(ReplicaStore(primary.env, "copy"))
        primary.copy_into(copies[0])
    copy = copies[0]
    copy.apply_batch(primary.wal.records_from(copy.applied_lsn))
    assert copy.applied_lsn == primary.wal.last_lsn
    assert restart_state(copy) == restart_state(primary)
