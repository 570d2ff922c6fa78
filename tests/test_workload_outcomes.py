"""The five benchmark workloads' simulated outcomes, pinned.

A kernel change that only saves queue entries (``events_per_commit``) must
leave every simulated history as it was. Each workload of
``benchmarks/perf/scenarios.py`` is built at seed 0 and driven for 0.2
sim-s, and a digest of what its clients saw is compared with a recording:
committed and aborted counts, committed transactions per type and the
sorted commit latencies. The event count is left out on purpose, so a
change that schedules fewer entries for the same history keeps passing,
and one that moves a single commit by a nanosecond fails.

None of the five workloads fails a node, so one more pin covers the fault
path: a Three-City TPC-C mix in which a replica falls behind and catches
up, then a primary fails, a replica is promoted and the other is rebuilt.
Its digest covers the client outcome, the failover record and every data
node's store: versions per key in chain order, commit log, frontier,
applied LSN and WAL bounds.

A change meant to alter simulated behaviour re-records the digests and
says which moved and why.
"""

import dataclasses
import hashlib

import pytest

from repro import ClusterConfig, build_cluster, three_city
from repro.sim.units import ms
from repro.workloads import TpccConfig, TpccWorkload, run_workload
from test_no_garbage_cycles import SCENARIOS

#: Digest per workload, recorded with the kernel that pushed every wait.
#: The three ROR workloads were re-recorded when heartbeats became one-way
#: notices logged only by a quiet primary; point select (no shard goes
#: quiet) and the baseline (no control plane) kept theirs. The four GClock
#: workloads were re-recorded again when a synced clock's anchor and drift
#: came to depend on the sync boundary alone, not on when a node read its
#: clock: commit timestamps, and with them commit waits, moved by
#: nanoseconds. The baseline (GTM timestamps) kept its digest. Point
#: select was re-recorded once more when the skyline's metrics came to ride
#: the RCP round: One-Region's round is about 5 ms, so node load reaches
#: the router five times as often as the old 25 ms status stream, which
#: shifts pool grants; the three Three-City ROR workloads held.
PINNED = {
    "hot_rows_three_city": "2b2371621aaa43a5",
    "point_select_one_region": "9accc63ba1fe7d3b",
    "sql_mixed_three_city": "ae1d813ea2eb399f",
    "tpcc_gtm_sync_three_city": "2a839590602cabb7",
    "tpcc_three_city": "b36a8daba04a0b3c",
}


def outcome_digest(stats) -> str:
    outcome = (stats.committed, stats.aborted, sorted(stats.by_type.items()),
               sorted(stats.latencies_ns))
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workload_outcome_matches_recording(name):
    scenario = SCENARIOS[name]
    db, workload = scenario.build(0)
    result = run_workload(db, workload, terminals=scenario.terminals,
                          duration_s=0.2, setup=False)
    assert result.stats.committed > 0
    assert outcome_digest(result.stats) == PINNED[name]


#: Digest of the failover run below, recorded before the primary and
#: replica stores were one class, and re-recorded when heartbeats became
#: one-way notices logged only by a quiet primary, and again when replicas
#: stopped acking batches of row changes only: three primaries' WAL
#: ``start_lsn`` moved (truncation waits for a later ack, which carries a
#: higher applied watermark); outcomes, failover record and stores held.
#: Re-recorded when the clock's reading stopped depending on its readers:
#: counts, failover record and stores' rows held, while commit latencies,
#: commit timestamps, clock-stamped columns and frontiers moved by
#: nanoseconds. Re-recorded when the skyline's metrics came to ride the
#: RCP round: the client outcome and failover record held; heartbeat
#: frontiers came 5.12 us earlier (heartbeat notices no longer queue behind
#: a 128-byte status reply at 200 Mbit/s) and dn3 logged one more
#: heartbeat record.
FAILOVER_PINNED = "7a41585f2595e825"


def store_fields(store) -> tuple:
    """What a store holds, by value: per table its DDL timestamp, its
    indexed columns and every key's chain as ``(xmin, xmax, data)`` newest
    first; the catalog's newest DDL timestamp, the commit log and the
    frontier."""
    tables = []
    for name in sorted(store.catalog.tables()):
        heap = store.table(name)
        indexes = [column for column in sorted(
            column for column in store.catalog.table(name).column_names())
            if heap.has_index(column)]
        tables.append((name, store.catalog.ddl_ts(name), indexes, [
            (key, [(v.xmin, v.xmax, sorted(v.data.items()))
                   for v in heap.versions(key)])
            for key in sorted(heap.keys())]))
    clog = [(txid, store.clog.status(txid).name, store.clog.commit_ts(txid))
            for txid in sorted(store.clog._records)]
    return tables, store.catalog.max_ddl_ts, clog, store.max_commit_ts


def store_state(dn) -> tuple:
    """A data node's :func:`store_fields`, with its name and role and the
    applied LSN (replica) or the WAL bounds (primary)."""
    store = dn.engine
    tables, max_ddl_ts, clog, frontier = store_fields(store)
    if dn.is_primary:
        position = ("wal", store.wal.start_lsn, store.wal.last_lsn)
    else:
        position = ("applied", store.applied_lsn)
    return (dn.name, dn.role, tables, max_ddl_ts, clog, frontier, position)


def test_failover_outcome_matches_recording():
    db = build_cluster(ClusterConfig.globaldb(
        three_city(), seed=5, auto_failover=True, failover_grace_ns=ms(200)))
    nodes = sorted([*db.primaries,
                    *(r for replicas in db.replicas.values() for r in replicas)],
                   key=lambda dn: dn.name)
    lagging = db.replicas[0][0]
    doomed = db.primaries[1]

    def faults():
        yield db.env.timeout(ms(300))
        lagging.fail()
        yield db.env.timeout(ms(300))
        lagging.recover()  # the next batch arrives with a gap: catch-up
        yield db.env.timeout(ms(100))
        doomed.fail()      # promotion, then a rebuild of the other replica

    db.env.process(faults(), name="faults")
    tpcc = TpccConfig(warehouses=3, customers_per_district=10, items=40,
                      initial_orders_per_district=4)
    result = run_workload(db, TpccWorkload(tpcc), terminals=12,
                          duration_s=1.6)
    db.run_for(0.6)
    assert lagging.catchup_requests >= 1
    assert [event.old_primary for event in db.failover.events] == [doomed.name]
    state = (outcome_digest(result.stats),
             [dataclasses.astuple(event) for event in db.failover.events],
             [store_state(dn) for dn in nodes])
    digest = hashlib.sha256(repr(state).encode()).hexdigest()[:16]
    assert digest == FAILOVER_PINNED
