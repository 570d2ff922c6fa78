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

Expressions are compiled once per statement execution by
:func:`compile_expr` into closures over the bound parameters; a predicate
scan ships the compiled WHERE to each shard, which calls it per row. There
is no plan cache: nothing compiled outlives its statement. ``ORDER BY``
sorts NULLs last ascending and first descending, as PostgreSQL does.

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
    Insert,
    Literal,
    Param,
    Select,
    UnaryOp,
    Update,
)
from repro.storage.catalog import ColumnDef, DistributionSpec, TableSchema

#: Binary operators by SQL spelling, apart from ``AND``/``OR``. A compiled
#: expression calls only the one it names, so ``=`` / ``<>`` between
#: unorderable types (a string column against an integer) are plain false /
#: true, not a ``TypeError``.
_OPERATORS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv,
}


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
def compile_expr(expr, params: typing.Sequence
                 ) -> typing.Callable[[typing.Mapping], typing.Any]:
    """Compile an expression with its parameters bound into ``row -> value``.

    The tree is walked once, here; the closure it returns does no type
    dispatch per row. Values follow SQL's three-valued logic: a comparison
    or arithmetic involving NULL is unknown (``None``), and ``NOT``/``AND``/
    ``OR`` follow Kleene's tables. A ``WHERE`` keeps a row only when its
    predicate is true. A missing ``?`` raises :class:`SqlError` when a row
    is evaluated, not here, so a scan of an empty table returns no rows; an
    operator the parser cannot produce raises here. Compile once per
    statement execution; nothing is cached."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Param):
        try:
            value = params[expr.index]
        except IndexError:
            index = expr.index

            def missing(row):
                raise SqlError(f"missing parameter {index}")
            return missing
        return lambda row: value
    if isinstance(expr, ColumnRef):
        name = expr.name
        return lambda row: row.get(name)
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, params)
        if expr.op == "NOT":
            def negate(row):
                value = operand(row)
                return None if value is None else not value
            return negate
        if expr.op == "-":
            def minus(row):
                value = operand(row)
                return None if value is None else -value
            return minus
        raise SqlError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinaryOp):
        apply = _OPERATORS.get(expr.op)
        if apply is not None and isinstance(expr.left, ColumnRef):
            constant = _bound_constant(expr.right, params)
            if constant is not None:
                # A scan's usual WHERE, ``col = ?``: one closure per row.
                name = expr.left.name

                def column_op_constant(row):
                    a = row.get(name)
                    return None if a is None else apply(a, constant)
                return column_op_constant
        left = compile_expr(expr.left, params)
        right = compile_expr(expr.right, params)
        if expr.op == "AND":
            def conjunction(row):
                a = left(row)
                if a is not None and not a:
                    return False
                b = right(row)
                if b is not None and not b:
                    return False
                return None if a is None or b is None else True
            return conjunction
        if expr.op == "OR":
            def disjunction(row):
                a = left(row)
                if a:
                    return True
                b = right(row)
                if b:
                    return True
                return None if a is None or b is None else False
            return disjunction
        if apply is not None:
            def binary(row):
                a = left(row)
                b = right(row)
                return None if a is None or b is None else apply(a, b)
            return binary
    raise SqlError(f"cannot evaluate expression {expr!r}")


def _bound_constant(expr, params: typing.Sequence):
    """The value of a literal or bound parameter; None for anything else."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Param) and expr.index < len(params):
        return params[expr.index]
    return None


def evaluate(expr, row: typing.Mapping, params: typing.Sequence):
    """One-off evaluation of an expression against a row: see
    :func:`compile_expr`, which a per-row caller uses directly."""
    return compile_expr(expr, params)(row)


def _where_predicate(where, params: typing.Sequence):
    """A statement's WHERE compiled into a row filter, or None for no WHERE
    (a scan then keeps every visible row). A scan tests the filter's result
    for truth, so an unknown (``None``) predicate drops the row."""
    return None if where is None else compile_expr(where, params)


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
    """Extract ``col = constant`` conjuncts from a WHERE clause; the first
    (leftmost) conjunct on a column wins. An explicit stack, not a
    recursive closure: a closure that calls itself is a reference cycle,
    which would leave one garbage cycle per statement for the collector."""
    bindings: dict[str, typing.Any] = {}
    stack = [where]
    while stack:
        expr = stack.pop()
        if not isinstance(expr, BinaryOp):
            continue
        if expr.op == "AND":
            stack.append(expr.right)
            stack.append(expr.left)  # popped first: left to right
        elif expr.op == "=":
            left, right = expr.left, expr.right
            if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
                left, right = right, left
            if (isinstance(left, ColumnRef)
                    and isinstance(right, (Literal, Param))
                    and left.name not in bindings):
                bindings[left.name] = evaluate(right, {}, params)
    return bindings


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

    def _select(self, statement: Select, params, ctx, min_read_ts: int = 0):
        table = statement.table
        bindings = equality_bindings(statement.where, params) \
            if statement.where is not None else {}
        key = self._pk_key(table, bindings)
        predicate = _where_predicate(statement.where, params)
        if key is not None:
            if ctx is not None:
                row = yield from self.cn.g_read(ctx, table, key)
            else:
                row = yield from self.cn.g_read_only(table, key,
                                                     min_read_ts=min_read_ts)
            rows = [row] if row is not None and (
                predicate is None or predicate(row)) else []
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
            # NULLs sort last ascending and first descending, as in
            # PostgreSQL; the flag keeps None out of the value comparison.
            column = statement.order_by
            rows = sorted(rows, key=lambda row: (row.get(column) is None,
                                                 row.get(column)),
                          reverse=statement.descending)
        if statement.limit is not None:
            rows = rows[:statement.limit]
        if any(item.expr == "*" for item in statement.items):
            return [dict(row) for row in rows]
        values = [None if isinstance(item.expr, ColumnRef)
                  else compile_expr(item.expr, params)
                  for item in statement.items]
        projected = []
        for row in rows:
            out = {}
            for item, value in zip(statement.items, values):
                if value is None:
                    out[item.alias or item.expr.name] = row.get(item.expr.name)
                else:
                    out[item.alias or "expr"] = value(row)
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
        expressions become atomic read-modify-write callables. Expressions
        over other columns come back compiled, as ``(column, row -> value)``
        pairs the caller evaluates against each target's current row."""
        changes: dict[str, typing.Any] = {}
        computed = []
        for column, expr in statement.assignments:
            referenced = columns_in(expr)
            if not referenced:
                changes[column] = evaluate(expr, {}, params)
            elif referenced == {column}:
                def rmw(old, value=compile_expr(expr, params), column=column):
                    return value({column: old})
                changes[column] = rmw
            else:
                computed.append((column, compile_expr(expr, params)))
        return changes, computed

    def _update(self, statement: Update, params, ctx):
        autocommit = ctx is None
        if autocommit:
            ctx = yield from self.cn.g_begin()
        bindings = equality_bindings(statement.where, params) \
            if statement.where is not None else {}
        key = self._pk_key(statement.table, bindings)
        schema = self.cn.shard_map.schema(statement.table)
        changes, computed = self._changes_from_assignments(statement, params)
        if key is not None:
            keys = [key]
        else:
            rows = yield from self.cn.g_scan(
                ctx, statement.table,
                _where_predicate(statement.where, params))
            keys = [schema.key_of(row) for row in rows]
        count = 0
        for target in keys:
            if computed:
                current = yield from self.cn.g_read_for_update(
                    ctx, statement.table, target)
                if current is None:
                    continue
                full = dict(changes)
                try:
                    for column, value in computed:
                        full[column] = value(current)
                except Exception as exc:
                    yield from self.cn.g_abort(ctx)
                    raise SqlError(f"SET on {statement.table} failed: "
                                   f"{exc!r}") from exc
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
        schema = self.cn.shard_map.schema(statement.table)
        if key is not None:
            keys = [key]
        else:
            rows = yield from self.cn.g_scan(
                ctx, statement.table,
                _where_predicate(statement.where, params))
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
