"""SQL planning and execution against a computing node.

The executor turns parsed statements into the CN's native operations:

- SELECT with the full primary key bound -> a single point read (the
  single-shard fast path);
- other SELECTs -> predicate scans across shards (read-only queries use
  the ROR path automatically);
- UPDATE/DELETE -> point ops when the primary key is bound, otherwise a
  scan to collect matching keys followed by per-key ops;
- ``col = col + expr`` style assignments are pushed to the data node as
  atomic read-modify-writes.

Everything is exposed as generators (for in-simulation callers) and wired
into :class:`repro.cluster.client.Session` for synchronous use.
"""

from __future__ import annotations

import operator
import typing

from repro.errors import SqlError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Literal,
    Param,
    Select,
    UnaryOp,
    Update,
)
from repro.storage.catalog import ColumnDef, DistributionSpec, TableSchema

# Sentinel: a planned point SELECT whose bound columns turned out not to
# cover the live primary key (DDL changed it) — fall back to the scan path.
_NOT_A_POINT = object()

#: Comparison operators by SQL spelling. ``evaluate`` calls only the one a
#: predicate names, so ``=`` / ``<>`` between unorderable types (a string
#: column against an integer) are plain false / true, not a ``TypeError``.
_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
def evaluate(expr, row: typing.Mapping, params: typing.Sequence):
    """Evaluate an expression against a row (SQL-ish NULL semantics:
    comparisons involving NULL are false, arithmetic propagates None)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Param):
        try:
            return params[expr.index]
        except IndexError:
            raise SqlError(f"missing parameter {expr.index}") from None
    if isinstance(expr, ColumnRef):
        return row.get(expr.name)
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row, params)
        if expr.op == "NOT":
            return not value
        if expr.op == "-":
            return None if value is None else -value
        raise SqlError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return bool(evaluate(expr.left, row, params)) and \
                bool(evaluate(expr.right, row, params))
        if expr.op == "OR":
            return bool(evaluate(expr.left, row, params)) or \
                bool(evaluate(expr.right, row, params))
        left = evaluate(expr.left, row, params)
        right = evaluate(expr.right, row, params)
        compare = _COMPARISONS.get(expr.op)
        if compare is not None:
            if left is None or right is None:
                return False
            return compare(left, right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
    raise SqlError(f"cannot evaluate expression {expr!r}")


def columns_in(expr) -> set[str]:
    """Every column name referenced by an expression."""
    if isinstance(expr, ColumnRef):
        return {expr.name}
    if isinstance(expr, BinaryOp):
        return columns_in(expr.left) | columns_in(expr.right)
    if isinstance(expr, UnaryOp):
        return columns_in(expr.operand)
    return set()


def equality_bindings(where, params) -> dict[str, typing.Any]:
    """Extract ``col = constant`` conjuncts from a WHERE clause."""
    bindings: dict[str, typing.Any] = {}

    def walk(expr) -> None:
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                walk(expr.left)
                walk(expr.right)
                return
            if expr.op == "=":
                left, right = expr.left, expr.right
                if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
                    left, right = right, left
                if (isinstance(left, ColumnRef)
                        and isinstance(right, (Literal, Param))
                        and left.name not in bindings):
                    bindings[left.name] = evaluate(right, {}, params)

    walk(where)
    return bindings


class _PointPlan:
    """Cached plan for a point SELECT: ``SELECT cols FROM t WHERE pk = ?``.

    ``eq`` holds every equality conjunct as ``(column, is_param, value)``
    (value is the param index when ``is_param``). ``star`` selects the
    whole-row projection; otherwise ``columns`` is ``(out_name, col_name)``
    pairs. Eligibility is structural only — whether the bound columns cover
    the primary key is re-checked against the live schema per execution, so
    a cached plan survives DDL."""

    __slots__ = ("eq", "star", "columns")

    def __init__(self, eq, star, columns):
        self.eq = eq
        self.star = star
        self.columns = columns


def _plan_point_select(statement: Select) -> _PointPlan | None:
    """Build a point plan, or None if the statement needs the general path:
    the WHERE must be a pure AND-tree of ``col = literal/param`` conjuncts
    (no duplicate columns) and the projection plain columns or ``*``."""
    if (statement.where is None or statement.order_by is not None
            or statement.limit is not None):
        return None
    star = False
    columns = []
    for item in statement.items:
        if item.expr == "*":
            star = True
        elif isinstance(item.expr, ColumnRef):
            columns.append((item.alias or item.expr.name, item.expr.name))
        else:
            return None
    eq: list[tuple] = []
    seen: set[str] = set()
    stack = [statement.where]
    while stack:
        expr = stack.pop()
        if not isinstance(expr, BinaryOp):
            return None
        if expr.op == "AND":
            stack.append(expr.left)
            stack.append(expr.right)
            continue
        if expr.op != "=":
            return None
        left, right = expr.left, expr.right
        if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
            left, right = right, left
        if not isinstance(left, ColumnRef) or left.name in seen:
            return None
        if isinstance(right, Param):
            eq.append((left.name, True, right.index))
        elif isinstance(right, Literal):
            eq.append((left.name, False, right.value))
        else:
            return None
        seen.add(left.name)
    return _PointPlan(tuple(eq), star, tuple(columns))


class SqlExecutor:
    """Plans and runs statements on one CN. Stateless; the caller supplies
    the transaction context for in-transaction execution."""

    def __init__(self, cn):
        self.cn = cn

    # ------------------------------------------------------------------
    def g_execute(self, statement, params: typing.Sequence = (), ctx=None,
                  min_read_ts: int = 0):
        """Generator: run one parsed statement.

        Returns a list of row dicts for SELECT, or a status dict for DML
        and DDL. ``ctx`` is a :class:`~repro.cluster.cn.TxnContext` for
        in-transaction execution; None means autocommit. ``min_read_ts``
        is the caller's read-your-writes floor for autocommit SELECTs.
        """
        if isinstance(statement, Select):
            # Prepared-statement fast path: plan once per AST instance,
            # cached on the (frozen, slot-less) node via object.__setattr__.
            plan = getattr(statement, "_point_plan", False)
            if plan is False:
                plan = _plan_point_select(statement)
                object.__setattr__(statement, "_point_plan", plan)
            if plan is not None:
                result = yield from self._select_point(statement, plan,
                                                       params, ctx,
                                                       min_read_ts)
                if result is not _NOT_A_POINT:
                    return result
            return (yield from self._select(statement, params, ctx,
                                            min_read_ts))
        if isinstance(statement, Insert):
            return (yield from self._insert(statement, params, ctx))
        if isinstance(statement, Update):
            return (yield from self._update(statement, params, ctx))
        if isinstance(statement, Delete):
            return (yield from self._delete(statement, params, ctx))
        if isinstance(statement, CreateTable):
            return (yield from self._create_table(statement))
        if isinstance(statement, DropTable):
            ddl_ts = yield from self.cn.g_drop_table(statement.table)
            return {"status": "dropped", "ddl_ts": ddl_ts}
        if isinstance(statement, CreateIndex):
            ddl_ts = yield from self.cn.g_create_index(statement.table,
                                                       statement.column)
            return {"status": "indexed", "ddl_ts": ddl_ts}
        raise SqlError(f"executor cannot run {type(statement).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _pk_key(self, table: str, bindings: dict) -> tuple | None:
        schema = self.cn.shard_map.schema(table)
        if all(column in bindings for column in schema.primary_key):
            return tuple(bindings[column] for column in schema.primary_key)
        return None

    def _select_point(self, statement: Select, plan: _PointPlan, params,
                      ctx, min_read_ts: int):
        """Run a planned point SELECT: resolve the bound values, single
        point read, re-check every equality against the returned row (NULL
        never matches, and an update may have rewritten a bound column),
        then the precomputed projection. Returns ``_NOT_A_POINT`` when the
        live primary key is not covered by the plan's bound columns."""
        values = {}
        for column, is_param, value in plan.eq:
            if is_param:
                try:
                    value = params[value]
                except IndexError:
                    raise SqlError(f"missing parameter {value}") from None
            values[column] = value
        schema = self.cn.shard_map.schema(statement.table)
        key = []
        for column in schema.primary_key:
            if column not in values:
                return _NOT_A_POINT
            key.append(values[column])
        if ctx is not None:
            row = yield from self.cn.g_read(ctx, statement.table, tuple(key))
        else:
            row = yield from self.cn.g_read_only(statement.table, tuple(key),
                                                 min_read_ts=min_read_ts)
        if row is None:
            return []
        for column, value in values.items():
            if value is None or row.get(column) != value:
                return []
        if plan.star:
            return [dict(row)]
        get = row.get
        return [{out: get(name) for out, name in plan.columns}]

    def _select(self, statement: Select, params, ctx, min_read_ts: int = 0):
        table = statement.table
        bindings = equality_bindings(statement.where, params) \
            if statement.where is not None else {}
        key = self._pk_key(table, bindings)
        where = statement.where

        def predicate(row):
            return where is None or bool(evaluate(where, row, params))

        if key is not None:
            if ctx is not None:
                row = yield from self.cn.g_read(ctx, table, key)
            else:
                row = yield from self.cn.g_read_only(table, key,
                                                     min_read_ts=min_read_ts)
            rows = [row] if row is not None and predicate(row) else []
        else:
            if ctx is not None:
                rows = yield from self.cn.g_scan(ctx, table, predicate)
            else:
                rows = yield from self.cn.g_scan_only(table, predicate,
                                                      min_read_ts=min_read_ts)
        return self._project(statement, rows, params)

    def _project(self, statement: Select, rows: list[dict], params):
        aggregates = [item.expr for item in statement.items
                      if isinstance(item.expr, Aggregate)]
        if aggregates:
            if len(aggregates) != len(statement.items):
                raise SqlError("cannot mix aggregates and plain columns")
            result = {}
            for aggregate in aggregates:
                name = aggregate.alias or \
                    f"{aggregate.func.lower()}" \
                    f"({'*' if aggregate.argument == '*' else aggregate.argument.name})"
                result[name] = self._aggregate(aggregate, rows, params)
            return [result]
        if statement.order_by is not None:
            rows = sorted(rows, key=lambda row: row.get(statement.order_by),
                          reverse=statement.descending)
        if statement.limit is not None:
            rows = rows[:statement.limit]
        if any(item.expr == "*" for item in statement.items):
            return [dict(row) for row in rows]
        projected = []
        for row in rows:
            out = {}
            for item in statement.items:
                if isinstance(item.expr, ColumnRef):
                    out[item.alias or item.expr.name] = row.get(item.expr.name)
                else:
                    out[item.alias or "expr"] = evaluate(item.expr, row, params)
            projected.append(out)
        return projected

    @staticmethod
    def _aggregate(aggregate: Aggregate, rows: list[dict], params):
        if aggregate.func == "COUNT":
            if aggregate.argument == "*":
                return len(rows)
            column = aggregate.argument.name
            return sum(1 for row in rows if row.get(column) is not None)
        column = aggregate.argument.name
        values = [row[column] for row in rows if row.get(column) is not None]
        if not values:
            return None
        if aggregate.func == "SUM":
            return sum(values)
        if aggregate.func == "AVG":
            return sum(values) / len(values)
        if aggregate.func == "MIN":
            return min(values)
        if aggregate.func == "MAX":
            return max(values)
        raise SqlError(f"unknown aggregate {aggregate.func}")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _rows_from_insert(self, statement: Insert, params) -> list[dict]:
        return [
            {column: evaluate(value, {}, params)
             for column, value in zip(statement.columns, value_row)}
            for value_row in statement.rows
        ]

    def _insert(self, statement: Insert, params, ctx):
        rows = self._rows_from_insert(statement, params)
        count = 0
        if ctx is not None:
            for row in rows:
                yield from self.cn.g_insert(ctx, statement.table, row)
                count += 1
            return {"status": "inserted", "count": count}
        ctx = yield from self.cn.g_begin()
        for row in rows:
            yield from self.cn.g_insert(ctx, statement.table, row)
            count += 1
        commit_ts = yield from self.cn.g_commit(ctx)
        return {"status": "inserted", "count": count, "commit_ts": commit_ts}

    def _changes_from_assignments(self, statement: Update, params):
        """Turn SET clauses into the DN changes dict; self-referencing
        expressions become atomic read-modify-write callables."""
        changes: dict[str, typing.Any] = {}
        complex_columns: set[str] = set()
        for column, expr in statement.assignments:
            referenced = columns_in(expr)
            if not referenced:
                changes[column] = evaluate(expr, {}, params)
            elif referenced == {column}:
                def rmw(old, expr=expr, column=column):
                    return evaluate(expr, {column: old}, params)
                changes[column] = rmw
            else:
                complex_columns.add(column)
        return changes, complex_columns

    def _update(self, statement: Update, params, ctx):
        autocommit = ctx is None
        if autocommit:
            ctx = yield from self.cn.g_begin()
        bindings = equality_bindings(statement.where, params) \
            if statement.where is not None else {}
        key = self._pk_key(statement.table, bindings)
        where = statement.where
        schema = self.cn.shard_map.schema(statement.table)
        changes, complex_columns = self._changes_from_assignments(statement,
                                                                  params)
        if key is not None:
            keys = [key]
        else:
            rows = yield from self.cn.g_scan(
                ctx, statement.table,
                lambda row: where is None or bool(evaluate(where, row, params)))
            keys = [schema.key_of(row) for row in rows]
        count = 0
        for target in keys:
            if complex_columns:
                current = yield from self.cn.g_read_for_update(
                    ctx, statement.table, target)
                if current is None:
                    continue
                full = dict(changes)
                for column, expr in statement.assignments:
                    if column in complex_columns:
                        full[column] = evaluate(expr, current, params)
                result = yield from self.cn.g_update(ctx, statement.table,
                                                     target, full)
            else:
                result = yield from self.cn.g_update(ctx, statement.table,
                                                     target, changes)
            if result is not None:
                count += 1
        if autocommit:
            commit_ts = yield from self.cn.g_commit(ctx)
            return {"status": "updated", "count": count,
                    "commit_ts": commit_ts}
        return {"status": "updated", "count": count}

    def _delete(self, statement: Delete, params, ctx):
        autocommit = ctx is None
        if autocommit:
            ctx = yield from self.cn.g_begin()
        bindings = equality_bindings(statement.where, params) \
            if statement.where is not None else {}
        key = self._pk_key(statement.table, bindings)
        where = statement.where
        schema = self.cn.shard_map.schema(statement.table)
        if key is not None:
            keys = [key]
        else:
            rows = yield from self.cn.g_scan(
                ctx, statement.table,
                lambda row: where is None or bool(evaluate(where, row, params)))
            keys = [schema.key_of(row) for row in rows]
        count = 0
        for target in keys:
            deleted = yield from self.cn.g_delete(ctx, statement.table, target)
            if deleted:
                count += 1
        if autocommit:
            commit_ts = yield from self.cn.g_commit(ctx)
            return {"status": "deleted", "count": count,
                    "commit_ts": commit_ts}
        return {"status": "deleted", "count": count}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _create_table(self, statement: CreateTable):
        schema = TableSchema(
            name=statement.table,
            columns=[ColumnDef(name, type_) for name, type_ in
                     statement.columns],
            primary_key=statement.primary_key,
            distribution=DistributionSpec(
                statement.distribution,
                statement.distribution_column),
        )
        ddl_ts = yield from self.cn.g_create_table(schema)
        return {"status": "created", "ddl_ts": ddl_ts}
