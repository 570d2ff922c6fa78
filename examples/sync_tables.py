"""Per-table synchronous replication (the paper's future-work feature).

The paper's conclusion sketches "synchronous replicated tables that
co-exist with asynchronous tables to meet specific business requirements by
trading off update performance in favor of maximizing freshness". This
library implements it: mark a table ``sync_replication=True`` and commits
touching it wait for every replica's acknowledgement, while the rest of the
database keeps GlobalDB's asynchronous speed.

The demo: a trading firm keeps its high-volume ``orders`` table async
(fast commits, RCP-fresh reads) but its low-volume ``compliance_log``
synchronous (an auditor in any city reading right after a commit sees it,
no RCP wait).

Run:  python examples/sync_tables.py
"""

from repro import ClusterConfig, build_cluster, three_city
from repro.sim.units import ns_to_ms


def main() -> None:
    db = build_cluster(ClusterConfig.globaldb(three_city()))
    xian = db.session(region="xian")
    xian.create_table("orders", [("id", "int"), ("qty", "int")],
                      primary_key=["id"])
    xian.create_table("compliance_log", [("id", "int"), ("event", "text")],
                      primary_key=["id"], sync_replication=True)

    def local_id(table):
        """An id homed on a Xi'an shard (well-placed data, as in §V-A)."""
        for candidate in range(1, 500):
            shard = db.shard_map.shard_for_key(table, (candidate,))
            if db.primaries[shard].region == "xian":
                return candidate
        raise RuntimeError("no local id found")

    def timed_commit(table, row):
        start = db.env.now
        xian.begin()
        xian.insert(table, row)
        xian.commit()
        return ns_to_ms(db.env.now - start)

    order_id = local_id("orders")
    log_id = local_id("compliance_log")
    async_ms = timed_commit("orders", {"id": order_id, "qty": 500})
    sync_ms = timed_commit("compliance_log",
                           {"id": log_id, "event": "large-trade"})
    print(f"async  table commit: {async_ms:7.2f} ms "
          f"(no replica waits; freshness via the RCP)")
    print(f"sync   table commit: {sync_ms:7.2f} ms "
          f"(waited for acks from replicas in the other two cities)")

    # The payoff: a reader in Dongguan sees the compliance entry
    # *immediately* — its replica acknowledged (and replays within
    # microseconds), no RCP catch-up required.
    shard = db.shard_map.shard_for_key("compliance_log", (log_id,))
    db.run_for(0.005)  # the acked batch's replay time
    from repro.storage.snapshot import Snapshot
    for replica in db.replicas[shard]:
        row = replica.engine.read("compliance_log", (log_id,),
                                 Snapshot(replica.engine.max_commit_ts))
        print(f"  {replica.name} ({replica.region}): sees compliance "
              f"entry = {row is not None}")

    stats = db.stats()
    print(f"\ncluster stats: commits={stats['commits']}, "
          f"mode={stats['mode']}, "
          f"mean commit wait={stats['mean_commit_wait_ms']:.3f} ms")


if __name__ == "__main__":
    main()
