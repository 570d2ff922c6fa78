"""Microbenchmarks: one layer's public functions, nothing else around them.

Each probe is ``probe(n) -> CPU-seconds``: it sets up its own state, times
``n`` operations with ``process_time`` and returns only the timed part. The
harness sizes ``n`` so one loop runs at least ``loop_s`` and reports the
median of ``reps`` loops. Probes import what they measure inside their own
body: when a later change removes a class, that probe reports ``null`` with
the reason and every other probe still runs.

The garbage collector stays on, as in the workload passes.
"""

from __future__ import annotations

import random
import statistics
import time

CHAIN = 512
DEFAULT_REPS = 5
DEFAULT_LOOP_S = 0.2
_cpu = time.process_time


def _require(condition: bool, what: str) -> None:
    """A probe that did not do the work it timed must not report a time."""
    if not condition:
        raise RuntimeError(f"micro probe did not do its work: {what}")


# ----------------------------------------------------------------------
# sim.kernel
# ----------------------------------------------------------------------
def kernel_timeout(n: int) -> float:
    """``env.timeout`` at spread-out delays, then ``run`` to drain them."""
    from repro.sim.core import Environment
    env = Environment()
    start = _cpu()
    for i in range(n):
        env.timeout(1 + i % 1000)
    env.run()
    return _cpu() - start


def kernel_process_switch(n: int) -> float:
    """One process suspending on a timeout and being resumed, ``n`` times."""
    from repro.sim.core import Environment
    env = Environment()

    def sleeper():
        for _ in range(n):
            yield env.timeout(1)

    env.process(sleeper())
    start = _cpu()
    env.run()
    return _cpu() - start


# ----------------------------------------------------------------------
# sim.network
# ----------------------------------------------------------------------
def _two_endpoints(handler):
    from repro.sim.core import Environment
    from repro.sim.network import Network
    env = Environment()
    network = Network(env)
    network.add_endpoint("a", "r1")
    network.add_endpoint("b", "r2", handler=handler)
    network.set_link("a", "b", latency_ns=50_000)
    return env, network


def network_send_deliver(n: int) -> float:
    """``Network.send`` to the destination handler, one message in flight
    per microsecond of sim time."""
    received = []
    env, network = _two_endpoints(received.append)

    def sender():
        for i in range(n):
            network.send("a", "b", ("ping", i))
            yield env.timeout(1_000)

    env.process(sender())
    start = _cpu()
    env.run()
    elapsed = _cpu() - start
    _require(len(received) == n, "messages lost")
    return elapsed


def network_request_reply(n: int) -> float:
    """``Network.request`` answered by ``Request.reply``, closed loop."""
    env, network = _two_endpoints(lambda message: message.payload.reply(1))

    def caller():
        for _ in range(n):
            yield network.request("a", "b", ("echo",))

    env.process(caller())
    start = _cpu()
    env.run()
    return _cpu() - start


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
def locks_acquire_release(n: int) -> float:
    """Uncontended ``LockTable.acquire`` + ``release_all``."""
    from repro.sim.core import Environment
    from repro.storage.locks import LockTable
    locks = LockTable(Environment())
    start = _cpu()
    for txid in range(1, n + 1):
        locks.acquire(txid, "t", (txid % 64,))
        locks.release_all(txid)
    return _cpu() - start


def _schema_t():
    from repro.storage.catalog import ColumnDef, TableSchema
    return TableSchema(
        name="t", columns=[ColumnDef("id", "int"), ColumnDef("n", "int")],
        primary_key=("id",))


def _engine_with_table():
    from repro.sim.core import Environment
    from repro.storage.engine import StorageEngine
    engine = StorageEngine(Environment(), "shard")
    engine.create_table(_schema_t(), ddl_ts=1, log=False)
    return engine


def _grow_chain(engine, key: tuple, versions: int, first_txid: int) -> int:
    """Give ``key`` a chain of ``versions`` committed versions, straight
    into the heap and commit log (through ``engine.update`` this set-up
    would cost more than what the probes time). Txid ``i`` commits at
    timestamp ``i``. Returns the next free txid."""
    from repro.storage.heap import RowVersion
    heap, clog = engine.table("t"), engine.clog
    previous = None
    for txid in range(first_txid, first_txid + versions):
        clog.begin(txid)
        version = RowVersion(key=key, data={"id": key[0], "n": txid},
                             xmin=txid)
        heap.add_version(version)
        if previous is not None:
            previous.xmax = txid
        clog.commit(txid, txid)
        previous = version
    engine.heartbeat(first_txid + versions - 1)  # moves last_commit_ts
    return first_txid + versions


def mvcc_insert_commit(n: int) -> float:
    """``begin`` + ``insert`` of a new key + ``commit``."""
    engine = _engine_with_table()
    start = _cpu()
    for txid in range(2, n + 2):
        engine.begin(txid)
        engine.insert(txid, "t", {"id": txid, "n": 0})
        engine.commit(txid, txid)
    return _cpu() - start


def _mvcc_read(n: int, versions: int) -> float:
    from repro.storage.snapshot import Snapshot
    engine = _engine_with_table()
    _grow_chain(engine, (1,), versions, first_txid=2)
    oldest = Snapshot(read_ts=2)  # sees only the first version: full walk
    start = _cpu()
    for _ in range(n):
        engine.read("t", (1,), oldest)
    return _cpu() - start


def mvcc_read_chain1(n: int) -> float:
    """``engine.read`` of a key with one version."""
    return _mvcc_read(n, 1)


def mvcc_read_chain512(n: int) -> float:
    """``engine.read`` at the oldest snapshot of a 512-version chain: the
    whole chain is walked."""
    return _mvcc_read(n, CHAIN)


def mvcc_update_chain512(n: int) -> float:
    """``begin`` + ``update`` + ``commit`` on a key whose chain is held at
    512-576 versions (trimmed, untimed, every 64 updates)."""
    engine = _engine_with_table()
    txid = _grow_chain(engine, (1,), CHAIN, first_txid=2)
    chain = engine.table("t").versions((1,))
    elapsed = 0.0
    done = 0
    while done < n:
        batch = min(64, n - done)
        start = _cpu()
        for txid in range(txid, txid + batch):
            engine.begin(txid)
            engine.update(txid, "t", (1,), {"n": txid})
            engine.commit(txid, txid)
        elapsed += _cpu() - start
        txid += 1
        done += batch
        del chain[CHAIN:]  # newest first: drops the oldest versions
    return elapsed


def mvcc_vacuum(n: int) -> float:
    """``engine.vacuum`` reclaiming 1000 dead versions (4 keys x 250, the
    hot-rows shape); one operation is one thousand versions."""
    elapsed = 0.0
    for _ in range(n):
        engine = _engine_with_table()
        txid = 2
        for key in range(4):
            txid = _grow_chain(engine, (key,), 251, first_txid=txid)
        start = _cpu()
        stats = engine.vacuum(retention_ns=0)
        elapsed += _cpu() - start
        _require(stats.versions_removed == 1000, f"vacuum removed {stats}")
    return elapsed


def wal_append(n: int) -> float:
    """``WalBuffer.append`` of prebuilt update records, one subscriber."""
    from repro.storage.redo import RedoUpdate
    from repro.storage.wal import WalBuffer
    wal = WalBuffer()
    wal.subscribe(lambda record: None)
    records = [RedoUpdate(txid=i, table="t", key=(i,), row={"id": i, "n": i})
               for i in range(n)]
    start = _cpu()
    for record in records:
        wal.append(record)
    return _cpu() - start


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------
def replication_apply_batch(n: int) -> float:
    """``ReplicaStore.apply_batch`` over insert / pending-commit / commit
    triples; one operation is one redo record."""
    from repro.replication.replica import ReplicaStore
    from repro.sim.core import Environment
    from repro.storage.redo import (RedoCommit, RedoDdl, RedoInsert,
                                    RedoPendingCommit)
    store = ReplicaStore(Environment(), "replica")
    records = [RedoDdl(txid=0, action="create_table", table="t",
                       payload=_schema_t(), commit_ts=1)]
    for txid in range(2, 2 + n // 3):
        records += [RedoInsert(txid=txid, table="t", key=(txid,),
                               row={"id": txid, "n": 0}),
                    RedoPendingCommit(txid=txid),
                    RedoCommit(txid=txid, commit_ts=txid)]
    for lsn, record in enumerate(records, start=1):
        record.lsn = lsn
    start = _cpu()
    store.apply_batch(records)
    elapsed = _cpu() - start
    _require(store.records_applied == len(records), "records skipped")
    return elapsed * n / len(records)


# ----------------------------------------------------------------------
# txn, cluster.cn, sql: on the smallest cluster that has the code path
# ----------------------------------------------------------------------
def _minimal_cluster(preset: str = "globaldb"):
    """One server, two shards with one replica each, table ``kv`` loaded,
    run long enough for the CN to have an RCP."""
    from repro import (ClusterConfig, ColumnDef, TableSchema, build_cluster,
                       one_region)
    config = getattr(ClusterConfig, preset)(
        one_region(servers=1), shards=2, replicas_per_shard=1)
    db = build_cluster(config)
    db.create_table_offline(TableSchema(
        name="kv", columns=[ColumnDef("id", "int"), ColumnDef("v", "int")],
        primary_key=("id",)))
    db.bulk_load("kv", [{"id": i, "v": 0} for i in range(256)])
    db.run_for(0.2)
    return db


def _timed_process(db, body) -> float:
    process = db.env.process(body)
    start = _cpu()
    db.env.run(until=process)
    return _cpu() - start


def _commit_ts(n: int, preset: str) -> float:
    db = _minimal_cluster(preset)
    provider = db.cns[0].provider

    def body():
        for _ in range(n):
            yield from provider.commit_ts(provider.mode)

    return _timed_process(db, body())


def txn_gclock_commit_ts(n: int) -> float:
    """``TimestampProvider.commit_ts`` in GClock mode: local stamp and
    commit wait."""
    return _commit_ts(n, "globaldb")


def txn_gtm_commit_ts(n: int) -> float:
    """``TimestampProvider.commit_ts`` in GTM mode: one round trip to the
    GTM server."""
    return _commit_ts(n, "baseline")


def ror_choose_node(n: int) -> float:
    """``choose_node`` over a primary and two replicas with a staleness
    bound and an RCP floor."""
    from repro.ror.skyline import NodeMetrics, choose_node
    candidates = [
        NodeMetrics("primary", 0, 55_000_000, is_primary=True),
        NodeMetrics("near", 3_000_000, 50_000, max_commit_ts=100),
        NodeMetrics("far", 5_000_000, 25_000_000, max_commit_ts=100),
    ]
    rng = random.Random(0)
    start = _cpu()
    for _ in range(n):
        choose_node(candidates, staleness_bound_ns=10_000_000,
                    min_commit_ts=50, rng=rng)
    return _cpu() - start


def _cn_txn(n: int, keys_per_txn: int) -> float:
    db = _minimal_cluster()
    cn = db.cns[0]
    by_shard: dict[int, list[int]] = {}
    for key in range(256):
        by_shard.setdefault(db.shard_map.shard_for_value("kv", key),
                            []).append(key)
    columns = list(by_shard.values())[:keys_per_txn]

    def body():
        for i in range(n):
            ctx = yield from cn.g_begin()
            for column in columns:
                yield from cn.g_update(ctx, "kv", (column[i % len(column)],),
                                       {"v": i})
            yield from cn.g_commit(ctx)

    return _timed_process(db, body())


def cn_single_shard_txn(n: int) -> float:
    """``g_begin`` + one ``g_update`` + one-phase ``g_commit``."""
    return _cn_txn(n, 1)


def cn_two_shard_2pc_txn(n: int) -> float:
    """``g_begin`` + two ``g_update`` on different shards + 2PC commit."""
    return _cn_txn(n, 2)


def sql_parse(n: int) -> float:
    """``parse`` of a literal point SELECT."""
    from repro.sql import parse
    start = _cpu()
    for i in range(n):
        parse(f"SELECT id, v FROM kv WHERE id = {i % 256}")
    return _cpu() - start


def sql_point_select_exec(n: int) -> float:
    """``SqlExecutor.g_execute`` of a prepared point SELECT (ROR read)."""
    from repro.sql import SqlExecutor, parse
    db = _minimal_cluster()
    executor = SqlExecutor(db.cns[0])
    statement = parse("SELECT id, v FROM kv WHERE id = ?")

    def body():
        for i in range(n):
            rows = yield from executor.g_execute(statement, (i % 256,))
            _require(rows[0]["id"] == i % 256, "wrong row")

    return _timed_process(db, body())


#: metric name -> (probe, unit)
PROBES = {
    "micro.sim.kernel.timeout_ns": (kernel_timeout, "ns"),
    "micro.sim.kernel.process_switch_ns": (kernel_process_switch, "ns"),
    "micro.sim.network.send_deliver_ns": (network_send_deliver, "ns"),
    "micro.sim.network.request_reply_ns": (network_request_reply, "ns"),
    "micro.storage.locks.acquire_release_ns": (locks_acquire_release, "ns"),
    "micro.storage.mvcc.insert_commit_ns": (mvcc_insert_commit, "ns"),
    "micro.storage.mvcc.read_chain1_ns": (mvcc_read_chain1, "ns"),
    "micro.storage.mvcc.read_chain512_ns": (mvcc_read_chain512, "ns"),
    "micro.storage.mvcc.update_chain512_ns": (mvcc_update_chain512, "ns"),
    "micro.storage.mvcc.vacuum_us_per_kversion": (mvcc_vacuum, "us"),
    "micro.storage.wal.append_ns": (wal_append, "ns"),
    "micro.replication.apply_batch_ns_per_record":
        (replication_apply_batch, "ns"),
    "micro.txn.gclock_commit_ts_ns": (txn_gclock_commit_ts, "ns"),
    "micro.txn.gtm_commit_ts_ns": (txn_gtm_commit_ts, "ns"),
    "micro.ror.choose_node_ns": (ror_choose_node, "ns"),
    "micro.cluster.cn.single_shard_txn_us": (cn_single_shard_txn, "us"),
    "micro.cluster.cn.two_shard_2pc_txn_us": (cn_two_shard_2pc_txn, "us"),
    "micro.sql.parse_ns": (sql_parse, "ns"),
    "micro.sql.point_select_exec_ns": (sql_point_select_exec, "ns"),
}
_PER_SECOND = {"ns": 1e9, "us": 1e6}


def _measure(probe, loop_s: float, reps: int) -> tuple[float, int]:
    """(median seconds per operation, operations per loop)."""
    n = 16
    elapsed = probe(n)
    while elapsed < loop_s:
        n = int(n * min(64.0, max(2.0, 1.2 * loop_s / max(elapsed, 1e-7))))
        elapsed = probe(n)
    samples = [elapsed / n] + [probe(n) / n for _ in range(reps - 1)]
    return statistics.median(samples), n


def run_all(loop_s: float = DEFAULT_LOOP_S, reps: int = DEFAULT_REPS) -> dict:
    """``{metric: {"value", "unit", ...}}``; ``value`` is ``None`` with a
    ``reason`` when what the probe measures no longer exists."""
    results = {}
    for name, (probe, unit) in PROBES.items():
        try:
            per_op_s, n = _measure(probe, loop_s, reps)
        except (ImportError, AttributeError, TypeError) as exc:
            results[name] = {"value": None, "unit": unit,
                             "reason": f"{type(exc).__name__}: {exc}"}
        else:
            results[name] = {"value": per_op_s * _PER_SECOND[unit],
                             "unit": unit, "ops_per_loop": n, "loops": reps}
    return results
