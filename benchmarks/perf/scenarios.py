"""The five benchmark workloads: scenario constants, cluster + data set-up,
the benchmark's own load generators, and the output checks.

Everything here goes through the public API only (``repro.build_cluster``,
``ClusterConfig`` presets, the ``Workload`` protocol, ``cn.g_*``,
``repro.sql``). One ``--seed`` drives ``ClusterConfig.seed`` and every
workload RNG; the own workloads keep one seeded stream per terminal, like
``SysbenchWorkload._rng``, so a terminal's inputs do not depend on how the
other terminals interleave.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass

from repro import (ClusterConfig, ColumnDef, TableSchema, build_cluster,
                   one_region, three_city)
from repro.errors import TransactionAborted
from repro.sql import SqlExecutor, parse
from repro.workloads import (SysbenchConfig, SysbenchWorkload, TpccConfig,
                             TpccWorkload)


@dataclass(frozen=True)
class Scenario:
    """One workload: how to build it, how long to drive it, how to check it."""

    name: str
    why: str
    terminals: int
    warmup_s: float
    timed_s: float
    #: Echoed in the output so a record says what was run.
    constants: dict
    #: seed -> (db, workload): fresh cluster with the data loaded.
    build: typing.Callable[[int], tuple]
    #: (db, workload) -> list of failure messages, run after quiesce.
    check: typing.Callable[[typing.Any, typing.Any], list]


# ----------------------------------------------------------------------
# TPC-C (the repo's own workload) on both transaction-management regimes
# ----------------------------------------------------------------------
TPCC_WAREHOUSES = 6
#: No operation of a benchmark workload may fail, so the spec's 1% of
#: New-Orders that roll back on an unused item id is switched off.
TPCC_NEW_ORDER_ABORT_PCT = 0.0


def _build_tpcc(config_for: typing.Callable) -> typing.Callable[[int], tuple]:
    def build(seed: int):
        db = build_cluster(config_for(three_city(), seed=seed))
        workload = TpccWorkload(TpccConfig(
            warehouses=TPCC_WAREHOUSES, seed=seed,
            new_order_abort_pct=TPCC_NEW_ORDER_ABORT_PCT))
        workload.setup(db)
        return db, workload
    return build


def _check_tpcc(db, workload) -> list[str]:
    """TPC-C consistency condition 1, read through a Session: per
    warehouse, W_YTD - 300000 = sum(D_YTD - 30000)."""
    failures = []
    config = workload.config
    for w_id in range(1, config.warehouses + 1):
        # From the warehouse's own region, so the check costs local reads.
        home = db.primaries[db.shard_map.shard_for_value("warehouse",
                                                         w_id)].region
        session = db.session(region=home)
        session.begin()
        w_ytd = session.read("warehouse", (w_id,))["w_ytd"]
        d_ytd = [session.read("district", (w_id, d_id))["d_ytd"]
                 for d_id in range(1, config.districts_per_warehouse + 1)]
        session.commit()
        paid_w = w_ytd - 300000.0
        paid_d = sum(value - 30000.0 for value in d_ytd)
        # Same payments summed in two orders: equal up to float rounding.
        if abs(paid_w - paid_d) > 1e-6 * max(1.0, abs(paid_w)):
            failures.append(f"warehouse {w_id}: w_ytd-300000={paid_w!r} but "
                            f"sum(d_ytd-30000)={paid_d!r}")
    return failures


# ----------------------------------------------------------------------
# Sysbench point-select, with every returned row compared to what was loaded
# ----------------------------------------------------------------------
class CheckedPointSelect(SysbenchWorkload):
    """``SysbenchWorkload`` point-select that also checks the row read."""

    def __init__(self, config: SysbenchConfig):
        super().__init__(config)
        self.wrong_rows = 0

    def transaction(self, cn, terminal_id: int):
        table, row_id = self._pick_key(cn, self._rng(terminal_id))
        row = yield from cn.g_read_only(table, (row_id,))
        if row is None or row["id"] != row_id or row["c"] != f"c-{row_id}":
            self.wrong_rows += 1
            raise TransactionAborted(f"point select {table}/{row_id}: {row!r}")
        return "point_select"


def _build_point_select(seed: int):
    db = build_cluster(ClusterConfig.globaldb(one_region(), seed=seed))
    workload = CheckedPointSelect(SysbenchConfig(
        tables=6, rows_per_table=300, remote_pct=2 / 3, seed=seed))
    workload.setup(db)
    return db, workload


def _check_point_select(db, workload) -> list[str]:
    if workload.wrong_rows:
        return [f"{workload.wrong_rows} point selects returned a row other "
                "than the loaded one"]
    return []


# ----------------------------------------------------------------------
# SQL front-end: prepared + unprepared reads beside writes on the same rows
# ----------------------------------------------------------------------
SQL_ROWS = 2000
SQL_GROUPS = 50
#: Shares of the four statement shapes.
SQL_SHARES = {"select_prepared": 0.70, "select_literal": 0.10,
              "update_prepared": 0.17, "select_group_scan": 0.03}


def _initial_val(row_id: int) -> int:
    return row_id * 7


class SqlMixedWorkload:
    """Closed-loop SQL clients over ``points(id, val, grp)``.

    Increments are positive and ``grp`` is never written, so every read can
    be checked while the run is in flight (``val`` never below its loaded
    value, ``grp`` and group sizes constant) and the table total can be
    checked at the end against the increments that were acknowledged.
    """

    name = "sql-mixed"

    def __init__(self, seed: int):
        self.seed = seed
        self._rngs: dict[int, random.Random] = {}
        self._executors: dict[str, SqlExecutor] = {}
        self._select = parse("SELECT id, val, grp FROM points WHERE id = ?")
        self._update = parse("UPDATE points SET val = val + ? WHERE id = ?")
        shares = list(SQL_SHARES.values())
        #: Upper draw bound of the first three shapes; the scan gets the rest.
        self._thresholds = (shares[0], shares[0] + shares[1],
                            shares[0] + shares[1] + shares[2])
        self.acked_increments = 0
        self.wrong_results = 0

    def setup(self, db) -> None:
        schema = TableSchema(
            name="points",
            columns=[ColumnDef("id", "int"), ColumnDef("val", "int"),
                     ColumnDef("grp", "int")],
            primary_key=("id",))
        db.create_table_offline(schema)
        db.bulk_load("points", [
            {"id": row_id, "val": _initial_val(row_id),
             "grp": row_id % SQL_GROUPS} for row_id in range(SQL_ROWS)])

    def _rng(self, terminal_id: int) -> random.Random:
        rng = self._rngs.get(terminal_id)
        if rng is None:
            rng = random.Random(self.seed * 5_000_011 + terminal_id)
            self._rngs[terminal_id] = rng
        return rng

    def _executor(self, cn) -> SqlExecutor:
        executor = self._executors.get(cn.name)
        if executor is None:
            executor = self._executors[cn.name] = SqlExecutor(cn)
        return executor

    def _wrong(self, what: str):
        self.wrong_results += 1
        return TransactionAborted(f"sql-mixed: wrong result for {what}")

    def transaction(self, cn, terminal_id: int):
        rng = self._rng(terminal_id)
        executor = self._executor(cn)
        draw = rng.random()
        row_id = rng.randrange(SQL_ROWS)
        prepared, literal, update = self._thresholds
        if draw < literal:
            if draw < prepared:
                kind = "select_prepared"
                rows = yield from executor.g_execute(self._select, (row_id,))
            else:
                kind = "select_literal"
                statement = parse("SELECT id, val, grp FROM points "
                                  f"WHERE id = {row_id}")
                rows = yield from executor.g_execute(statement)
            if (len(rows) != 1 or rows[0]["id"] != row_id
                    or rows[0]["grp"] != row_id % SQL_GROUPS
                    or rows[0]["val"] < _initial_val(row_id)):
                raise self._wrong(f"{kind} id={row_id}: {rows!r}")
            return kind
        if draw < update:
            amount = rng.randint(1, 9)
            result = yield from executor.g_execute(self._update,
                                                   (amount, row_id))
            if result["count"] != 1:
                raise self._wrong(f"update id={row_id}: {result!r}")
            self.acked_increments += amount
            return "update_prepared"
        group = row_id % SQL_GROUPS
        statement = parse(f"SELECT COUNT(*) FROM points WHERE grp = {group}")
        rows = yield from executor.g_execute(statement)
        if rows != [{"count(*)": SQL_ROWS // SQL_GROUPS}]:
            raise self._wrong(f"group scan grp={group}: {rows!r}")
        return "select_group_scan"


def _build_sql_mixed(seed: int):
    db = build_cluster(ClusterConfig.globaldb(three_city(), seed=seed))
    workload = SqlMixedWorkload(seed)
    workload.setup(db)
    return db, workload


def _check_sql_mixed(db, workload) -> list[str]:
    failures = []
    if workload.wrong_results:
        failures.append(f"{workload.wrong_results} statements returned a "
                        "wrong result")
    session = db.session()
    session.begin()  # in a transaction: read primaries, not the RCP
    total = session.execute("SELECT SUM(val) FROM points")[0]["sum(val)"]
    session.commit()
    expected = (sum(_initial_val(row_id) for row_id in range(SQL_ROWS))
                + workload.acked_increments)
    if total != expected:
        failures.append(f"SUM(val)={total}, expected initial sum + "
                        f"acknowledged increments = {expected}")
    return failures


# ----------------------------------------------------------------------
# Hot rows: three counters, long version chains, vacuum inside the run
# ----------------------------------------------------------------------
HOT_ROWS_SETTLE_S = 0.3


class HotRowsWorkload:
    """One writer and one ROR reader per CN over a three-row table.

    Terminal ``t`` runs on CN ``t % len(cns)`` (the driver's round-robin);
    the first ``len(cns)`` terminals are writers, the rest readers. Each
    writer increments the one counter homed on a shard whose primary is in
    its own region, so writers never conflict; each reader cycles through
    the other regions' counters.
    """

    name = "hot-rows"

    def __init__(self):
        self._key_of_cn: dict[str, int] = {}
        self._writers = 0
        self.acked: dict[int, int] = {}
        self._reads: dict[int, int] = {}
        self._last_seen: dict[tuple[int, int], int] = {}
        self.decreases = 0

    def setup(self, db) -> None:
        schema = TableSchema(
            name="counters",
            columns=[ColumnDef("id", "int"), ColumnDef("n", "int")],
            primary_key=("id",))
        db.create_table_offline(schema)
        for cn in db.cns:
            key = next(candidate for candidate in range(1000)
                       if db.primaries[db.shard_map.shard_for_value(
                           "counters", candidate)].region == cn.region
                       and candidate not in self._key_of_cn.values())
            self._key_of_cn[cn.name] = key
            self.acked[key] = 0
        self._writers = len(db.cns)
        db.bulk_load("counters",
                     [{"id": key, "n": 0} for key in self.acked])

    def transaction(self, cn, terminal_id: int):
        own_key = self._key_of_cn[cn.name]
        if terminal_id < self._writers:
            ctx = yield from cn.g_begin()
            yield from cn.g_update(ctx, "counters", (own_key,),
                                   {"n": lambda n: n + 1})
            yield from cn.g_commit(ctx)
            self.acked[own_key] += 1
            return "increment"
        others = [key for key in self.acked if key != own_key]
        turn = self._reads.get(terminal_id, 0)
        self._reads[terminal_id] = turn + 1
        key = others[turn % len(others)]
        row = yield from cn.g_read_only("counters", (key,))
        seen = row["n"]
        if seen < self._last_seen.get((terminal_id, key), 0):
            self.decreases += 1
            raise TransactionAborted(
                f"hot-rows: counter {key} went backwards to {seen}")
        self._last_seen[(terminal_id, key)] = seen
        return "read"


def _build_hot_rows(seed: int):
    db = build_cluster(ClusterConfig.globaldb(
        three_city(), seed=seed, vacuum_interval_ns=250_000_000,
        vacuum_retention_ns=500_000_000))
    workload = HotRowsWorkload()
    workload.setup(db)
    # Until a CN has computed its first RCP, reads fall back to the primary
    # and see the newest value; the switch to replica reads then steps back
    # to the RCP. Let every CN get an RCP first, so readers can require
    # counters never to decrease.
    db.run_for(HOT_ROWS_SETTLE_S)
    return db, workload


def _check_hot_rows(db, workload) -> list[str]:
    failures = []
    if workload.decreases:
        failures.append(f"readers saw a counter decrease "
                        f"{workload.decreases} times")
    session = db.session()
    session.begin()
    for key, commits in workload.acked.items():
        stored = session.read("counters", (key,))["n"]
        if stored != commits:
            failures.append(f"counter {key} = {stored}, its writer "
                            f"committed {commits} increments")
    session.commit()
    return failures


# ----------------------------------------------------------------------
SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(
        name="tpcc_three_city",
        why="Paper Fig. 6a GlobalDB bar: multi-statement write transactions "
            "on Three-City; storage, WAL, replication and DN do the work, "
            "SQL does none.",
        terminals=60, warmup_s=0.2, timed_s=1.5,
        constants={"config": "globaldb(three_city())", "mix": "full TPC-C",
                   "warehouses": TPCC_WAREHOUSES,
                   "new_order_abort_pct": TPCC_NEW_ORDER_ABORT_PCT},
        build=_build_tpcc(ClusterConfig.globaldb), check=_check_tpcc),
    Scenario(
        name="point_select_one_region",
        why="Fig. 6d shape on One-Region: ROR reads only, so kernel, network "
            "and CN routing dominate and storage, WAL and replication idle.",
        terminals=80, warmup_s=0.1, timed_s=0.3,
        constants={"config": "globaldb(one_region())", "tables": 6,
                   "rows_per_table": 300, "remote_pct": "2/3"},
        build=_build_point_select, check=_check_point_select),
    Scenario(
        name="sql_mixed_three_city",
        why="Only workload where lexer, parser, plan cache and predicate "
            "evaluation work; writes sit beside ROR reads on the same rows.",
        terminals=48, warmup_s=0.2, timed_s=6.0,
        constants={"config": "globaldb(three_city())", "rows": SQL_ROWS,
                   "groups": SQL_GROUPS,
                   "shares": SQL_SHARES},
        build=_build_sql_mixed, check=_check_sql_mixed),
    Scenario(
        name="tpcc_gtm_sync_three_city",
        why="Same TPC-C on the centralized path: GTM round trips, "
            "remote-quorum sync replication, stock Nagle transport; also "
            "the DUAL-mode fallback's steady state.",
        # Two terminals per warehouse: a transaction holds its warehouse row
        # across a remote-quorum ack, and with more waiters in the queue a
        # lock wait reaches the 1 s timeout and the transaction fails.
        terminals=12, warmup_s=0.5, timed_s=16.0,
        constants={"config": "baseline(three_city())", "mix": "full TPC-C",
                   "warehouses": TPCC_WAREHOUSES,
                   "new_order_abort_pct": TPCC_NEW_ORDER_ABORT_PCT},
        build=_build_tpcc(ClusterConfig.baseline), check=_check_tpcc),
    Scenario(
        name="hot_rows_three_city",
        why="Maximum key skew: 3 rows, version chains ~500 long, vacuum "
            "cycling inside the run; the mode_migration pathology as a "
            "workload.",
        terminals=6, warmup_s=0.6, timed_s=1.0,
        constants={"config": "globaldb(three_city())",
                   "vacuum_interval_ms": 250, "vacuum_retention_ms": 500,
                   "rows": 3, "writers_per_cn": 1, "readers_per_cn": 1,
                   "idle_settle_s": HOT_ROWS_SETTLE_S},
        build=_build_hot_rows, check=_check_hot_rows),
)}
