"""Synchronous client sessions.

A :class:`Session` is the ergonomic facade over the event-driven cluster:
each call schedules the CN-side coroutine and steps the simulation until it
completes, while all background machinery (replication, replay, RCP
collection, heartbeats, other clients) keeps running. This is how the
examples and interactive code drive the database; high-concurrency
workloads instead run their drivers *inside* the simulation
(:mod:`repro.workloads`).
"""

from __future__ import annotations

import typing

from repro.errors import CommitOutcomeUnknown, TransactionAborted
from repro.sim.units import ms
from repro.storage.catalog import ColumnDef, DistributionSpec, TableSchema

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.builder import GlobalDB
    from repro.cluster.cn import ComputingNode, TxnContext


def _copy(row: dict | None) -> dict | None:
    return None if row is None else dict(row)


class Session:
    """A client connection bound to one computing node.

    Rows a session returns are the caller's own copies. Inside the cluster
    a row image is shared by the primary, the redo stream and every
    replica (:mod:`repro.storage.heap`), so the generator API underneath
    (``cn.g_*``, :class:`_GeneratorTxn`) hands out the stored dicts
    themselves and they are read-only."""

    def __init__(self, db: "GlobalDB", cn: "ComputingNode"):
        self.db = db
        self.cn = cn
        self._ctx: "TxnContext | None" = None
        self._executor = None
        self._statement_cache: dict[str, typing.Any] = {}
        #: Read-your-writes floor: the session's last commit timestamp.
        #: Read-only queries fall back to primary reads until the RCP
        #: covers it, so a session always sees its own commits.
        self.last_commit_ts = 0
        # Current history op when a recorder is installed (repro.check).
        self._history_op = None

    # ------------------------------------------------------------------
    def _run(self, generator) -> typing.Any:
        process = self.db.env.process(generator, name=f"session:{self.cn.name}")
        return self.db.env.run(until=process)

    @property
    def in_txn(self) -> bool:
        return self._ctx is not None and not self._ctx.finished

    def _require_txn(self) -> "TxnContext":
        if not self.in_txn:
            raise TransactionAborted("no transaction in progress")
        return self._ctx

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start a read-write transaction."""
        if self.in_txn:
            raise TransactionAborted("transaction already in progress")
        recorder = self.db.env.history
        if recorder is not None:
            self._history_op = recorder.invoke(f"session:{self.cn.name}",
                                               "txn")
        self._ctx = self._run(self.cn.g_begin())

    def commit(self) -> int:
        """Commit; returns the commit timestamp."""
        ctx = self._require_txn()
        recorder, op = self.db.env.history, self._history_op
        try:
            wrote = bool(ctx.write_shards)
            ts = self._run(self.cn.g_commit(ctx))
            if wrote and ts > self.last_commit_ts:
                self.last_commit_ts = ts
            if recorder is not None and op is not None:
                recorder.ok(op, commit_ts=ts)
            return ts
        except CommitOutcomeUnknown as exc:
            if recorder is not None and op is not None:
                recorder.info(op, str(exc))
            raise
        except TransactionAborted as exc:
            if recorder is not None and op is not None:
                recorder.fail(op, str(exc))
            raise
        finally:
            self._ctx = None
            self._history_op = None

    def rollback(self) -> None:
        ctx = self._require_txn()
        recorder, op = self.db.env.history, self._history_op
        if recorder is not None and op is not None:
            recorder.fail(op, "rollback")
        self._history_op = None
        self._run(self.cn.g_abort(ctx))
        self._ctx = None

    def insert(self, table: str, row: dict) -> dict:
        return self._run(self.cn.g_insert(self._require_txn(), table, row))

    def update(self, table: str, key: tuple, changes: typing.Mapping) -> dict | None:
        return _copy(self._run(
            self.cn.g_update(self._require_txn(), table, key, changes)))

    def delete(self, table: str, key: tuple) -> bool:
        return self._run(self.cn.g_delete(self._require_txn(), table, key))

    def read(self, table: str, key: tuple) -> dict | None:
        """Read inside the current transaction (from the shard primary)."""
        return _copy(self._run(self.cn.g_read(self._require_txn(), table, key)))

    def read_for_update(self, table: str, key: tuple) -> dict | None:
        return _copy(self._run(
            self.cn.g_read_for_update(self._require_txn(), table, key)))

    def scan(self, table: str,
             predicate: typing.Callable[[dict], bool] | None = None) -> list[dict]:
        rows = self._run(self.cn.g_scan(self._require_txn(), table, predicate))
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # Auto-commit single statements
    # ------------------------------------------------------------------
    def execute_txn(self, fn: typing.Callable) -> typing.Any:
        """Run ``fn(txn)`` as one transaction with auto commit/abort.

        ``fn`` receives a :class:`TxnFacade` with the same verbs as the
        session and must not call commit/rollback itself.
        """
        def runner():
            ctx = yield from self.cn.g_begin()
            facade = _GeneratorTxn(self.cn, ctx)
            try:
                result = yield from fn(facade)
            except TransactionAborted:
                raise
            except Exception:
                yield from self.cn.g_abort(ctx)
                raise
            yield from self.cn.g_commit(ctx)
            return result
        return self._run(runner())

    # ------------------------------------------------------------------
    # Read-only queries (ROR path when enabled)
    # ------------------------------------------------------------------
    def read_only(self, table: str, key: tuple,
                  max_staleness_ms: float | None = None) -> dict | None:
        bound = None if max_staleness_ms is None else ms(max_staleness_ms)
        return _copy(self._run(self.cn.g_read_only(
            table, key, staleness_bound_ns=bound,
            min_read_ts=self.last_commit_ts)))

    def read_only_multi(self, table: str, keys: typing.Sequence[tuple],
                        max_staleness_ms: float | None = None) -> list[dict | None]:
        bound = None if max_staleness_ms is None else ms(max_staleness_ms)
        rows = self._run(self.cn.g_read_only_multi(
            table, keys, staleness_bound_ns=bound,
            min_read_ts=self.last_commit_ts))
        return [_copy(row) for row in rows]

    def scan_only(self, table: str,
                  predicate: typing.Callable[[dict], bool] | None = None,
                  max_staleness_ms: float | None = None) -> list[dict]:
        bound = None if max_staleness_ms is None else ms(max_staleness_ms)
        rows = self._run(self.cn.g_scan_only(
            table, predicate, staleness_bound_ns=bound,
            min_read_ts=self.last_commit_ts))
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: typing.Sequence = ()) -> typing.Any:
        """Parse and run one SQL statement (parse results are cached, so
        repeated statements behave like prepared statements).

        Returns a list of row dicts for SELECT, a status dict for DML/DDL,
        and None for BEGIN/COMMIT/ROLLBACK.
        """
        from repro.sql import SqlExecutor, parse
        from repro.sql.ast_nodes import BeginTxn, CommitTxn, RollbackTxn

        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse(sql)
            self._statement_cache[sql] = statement
        if isinstance(statement, BeginTxn):
            self.begin()
            return None
        if isinstance(statement, CommitTxn):
            return self.commit()
        if isinstance(statement, RollbackTxn):
            self.rollback()
            return None
        if self._executor is None:
            self._executor = SqlExecutor(self.cn)
        ctx = self._ctx if self.in_txn else None
        result = self._run(self._executor.g_execute(
            statement, params, ctx, min_read_ts=self.last_commit_ts))
        if (isinstance(result, dict) and ctx is None
                and result.get("commit_ts", 0) > self.last_commit_ts):
            self.last_commit_ts = result["commit_ts"]
        return result

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: typing.Sequence[tuple[str, str]],
                     primary_key: typing.Sequence[str],
                     distribution: str = "hash",
                     distribution_column: str | None = None,
                     sync_replication: bool = False) -> int:
        """Online CREATE TABLE. Returns the DDL timestamp.

        ``sync_replication=True`` marks the table for per-table synchronous
        replication: commits touching it wait for every replica ack.
        """
        schema = TableSchema(
            name=name,
            columns=[ColumnDef(column, type_) for column, type_ in columns],
            primary_key=tuple(primary_key),
            distribution=DistributionSpec(distribution, distribution_column),
            sync_replication=sync_replication,
        )
        return self._run(self.cn.g_create_table(schema))

    def drop_table(self, name: str) -> int:
        return self._run(self.cn.g_drop_table(name))

    def create_index(self, table: str, column: str) -> int:
        return self._run(self.cn.g_create_index(table, column))

    # ------------------------------------------------------------------
    @property
    def rcp(self) -> int:
        """The CN's current view of the Replica Consistency Point."""
        return self.cn.rcp_state.rcp


class _GeneratorTxn:
    """Transaction verbs usable inside :meth:`Session.execute_txn` bodies
    (generator-style: each verb must be consumed with ``yield from``).
    Zero-copy: returned rows are the stored images and are read-only."""

    def __init__(self, cn: "ComputingNode", ctx: "TxnContext"):
        self._cn = cn
        self._ctx = ctx

    def insert(self, table: str, row: dict):
        return self._cn.g_insert(self._ctx, table, row)

    def update(self, table: str, key: tuple, changes: typing.Mapping):
        return self._cn.g_update(self._ctx, table, key, changes)

    def read(self, table: str, key: tuple):
        return self._cn.g_read(self._ctx, table, key)
