"""One row image per version, cluster-wide, and nobody edits it.

- identity: after a TPC-C mix with a replica outage (catch-up fetch), a
  primary failure (promotion) and the replica rebuild that follows, every
  version on every replica holds the very dict its primary holds;
- immutability: the structural fingerprint every image had when it was
  installed in a heap is the fingerprint it has after a bank + sysbench +
  TPC-C mix under the default nemesis has quiesced.
"""

from repro import ClusterConfig, build_cluster, three_city
from repro.chaos import make_nemesis
from repro.san.fingerprint import fingerprint
from repro.sim.units import ms
from repro.storage.heap import HeapTable
from repro.workloads import (
    BankConfig,
    BankWorkload,
    MixedWorkload,
    SysbenchConfig,
    SysbenchWorkload,
    TpccConfig,
    TpccWorkload,
    run_workload,
)

SMALL_TPCC = TpccConfig(warehouses=3, customers_per_district=10, items=40,
                        initial_orders_per_district=4)


def test_replica_versions_hold_the_primarys_images():
    db = build_cluster(ClusterConfig.globaldb(
        three_city(), seed=5, auto_failover=True, failover_grace_ns=ms(200)))
    lagging = db.replicas[0][0]
    doomed = db.primaries[1]

    def faults():
        yield db.env.sleep(ms(300))
        lagging.fail()
        yield db.env.sleep(ms(300))
        lagging.recover()  # the next batch arrives with a gap: catch-up
        yield db.env.sleep(ms(100))
        doomed.fail()      # promotion, then a rebuild of the other replica

    db.env.process(faults(), name="faults")
    result = run_workload(db, TpccWorkload(SMALL_TPCC), terminals=12,
                          duration_s=1.6)
    db.run_for(0.6)  # replay drains (only heartbeats are still in flight)
    assert result.stats.committed > 100
    assert lagging.catchup_requests >= 1
    assert [event.old_primary for event in db.failover.events] == [doomed.name]
    assert db.primaries[1] is not doomed and len(db.replicas[1]) == 1

    compared = 0
    for shard, primary in enumerate(db.primaries):
        for replica in db.replicas[shard]:
            for name, heap in primary.engine._tables.items():
                mirror = replica.store.table(name)
                assert len(mirror) == len(heap)
                for key in heap.keys():
                    ours, theirs = heap.versions(key), mirror.versions(key)
                    assert ([v.xmin for v in ours] == [v.xmin for v in theirs])
                    assert all(mine.data is yours.data
                               for mine, yours in zip(ours, theirs))
                    compared += len(ours)
    assert compared > 1000


def test_installed_images_are_never_edited(monkeypatch):
    installed: dict[int, tuple[dict, str]] = {}
    add_version = HeapTable.add_version

    def recording_add(heap, version):
        # Keyed by identity and holding the dict, so ids are never reused.
        if id(version.data) not in installed:
            installed[id(version.data)] = (version.data,
                                           fingerprint(version.data))
        add_version(heap, version)

    monkeypatch.setattr(HeapTable, "add_version", recording_add)
    db = build_cluster(ClusterConfig.globaldb(three_city(), seed=3,
                                              auto_failover=True))
    workload = MixedWorkload([
        (BankWorkload(BankConfig(accounts=16, seed=3)), 1.0),
        (SysbenchWorkload(SysbenchConfig(tables=2, rows_per_table=50)), 1.0),
        (TpccWorkload(SMALL_TPCC), 1.0),
    ], seed=3)
    nemesis = make_nemesis("default", db).start()
    result = run_workload(db, workload, terminals=24, duration_s=1.75)
    nemesis.quiesce()
    db.run_for(0.5)
    assert result.stats.committed > 100 and nemesis.events
    loaded = sum(len(primary.engine.table(name))
                 for primary in db.primaries
                 for name in primary.engine._tables)
    assert len(installed) > loaded  # run-time writes were recorded too
    edited = [image for image, before in installed.values()
              if fingerprint(image) != before]
    assert not edited
