"""Tests for the SQL front-end: lexer, parser, and end-to-end execution."""

import gc
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, build_cluster, one_region, three_city
from repro.errors import SqlError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    CreateTable,
    Insert,
    Literal,
    Param,
    Select,
    UnaryOp,
    Update,
)
from repro.sql.executor import (
    columns_in,
    compile_expr,
    equality_bindings,
    evaluate,
)
from repro.sql.lexer import tokenize
from repro.sql.parser import parse


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [token.value for token in tokens[:-1]] == ["SELECT", "FROM",
                                                          "WHERE"]

    def test_identifiers_lowercased(self):
        tokens = tokenize("MyTable my_col")
        assert [token.value for token in tokens[:-1]] == ["mytable", "my_col"]

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == 42
        assert tokens[1].value == pytest.approx(3.14)

    def test_strings_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_two_char_operators(self):
        tokens = tokenize("a <= b <> c")
        values = [token.value for token in tokens[:-1]]
        assert "<=" in values and "<>" in values

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("a @ b")


class TestParser:
    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement, Select)
        assert statement.table == "t"
        assert statement.items[0].expr == "*"

    def test_select_with_where_order_limit(self):
        statement = parse(
            "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY b DESC LIMIT 5")
        assert statement.order_by == "b"
        assert statement.descending
        assert statement.limit == 5
        assert isinstance(statement.where, BinaryOp)
        assert statement.where.op == "AND"

    def test_select_aggregates(self):
        statement = parse("SELECT COUNT(*), SUM(x) FROM t")
        assert all(isinstance(item.expr, Aggregate) for item in statement.items)

    def test_insert_multi_row(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(statement, Insert)
        assert len(statement.rows) == 2

    def test_insert_width_mismatch_rejected(self):
        with pytest.raises(SqlError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_update_with_params(self):
        statement = parse("UPDATE t SET a = a + ?, b = ? WHERE id = ?")
        assert isinstance(statement, Update)
        assert len(statement.assignments) == 2
        params = [expr for _col, expr in statement.assignments]
        assert isinstance(params[1], Param)

    def test_create_table_inline_pk(self):
        statement = parse("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        assert isinstance(statement, CreateTable)
        assert statement.primary_key == ("id",)

    def test_create_table_composite_pk_and_distribution(self):
        statement = parse(
            "CREATE TABLE t (a INT, b INT, v TEXT, PRIMARY KEY (a, b)) "
            "DISTRIBUTE BY HASH(a)")
        assert statement.primary_key == ("a", "b")
        assert statement.distribution == "hash"
        assert statement.distribution_column == "a"

    def test_create_table_replicated(self):
        statement = parse("CREATE TABLE t (id INT PRIMARY KEY) "
                          "DISTRIBUTE BY REPLICATION")
        assert statement.distribution == "replicated"

    def test_create_table_without_pk_rejected(self):
        with pytest.raises(SqlError):
            parse("CREATE TABLE t (a INT)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM t garbage extra")

    def test_operator_precedence(self):
        statement = parse("SELECT * FROM t WHERE a = 1 + 2 * 3")
        comparison = statement.where
        value = evaluate(comparison.right, {}, ())
        assert value == 7

    def test_parenthesized_expression(self):
        statement = parse("SELECT * FROM t WHERE a = (1 + 2) * 3")
        assert evaluate(statement.where.right, {}, ()) == 9


class TestExpressionEvaluation:
    def test_null_comparison_is_unknown(self):
        expr = parse("SELECT * FROM t WHERE a = 1").where
        assert evaluate(expr, {"a": None}, ()) is None

    def test_not_and_or_follow_kleene_tables(self):
        """Three-valued logic: ``None`` is unknown; NOT keeps it unknown,
        AND is false if either side is, OR is true if either side is."""
        values = {"t": True, "f": False, "n": None}
        row = {"t": 1, "f": 2, "n": None}
        exprs = {name: f"{name} = 1" for name in values}
        for name, value in values.items():
            expr = parse(f"SELECT * FROM t WHERE NOT {exprs[name]}").where
            assert evaluate(expr, row, ()) is (None if value is None
                                               else not value), name
        for (left, a), (right, b) in itertools.product(values.items(),
                                                        repeat=2):
            both = parse(f"SELECT * FROM t WHERE {exprs[left]} AND "
                         f"{exprs[right]}").where
            either = parse(f"SELECT * FROM t WHERE {exprs[left]} OR "
                           f"{exprs[right]}").where
            conj = False if False in (a, b) else (None if None in (a, b)
                                                  else True)
            disj = True if True in (a, b) else (None if None in (a, b)
                                                else False)
            assert evaluate(both, row, ()) is conj, (left, right)
            assert evaluate(either, row, ()) is disj, (left, right)

    def test_equality_on_mixed_types_does_not_order_them(self):
        """``=`` / ``<>`` between a string and an integer are false / true;
        only the ordering operators may object to unorderable operands."""
        row = {"name": "ann"}
        assert evaluate(parse("SELECT * FROM t WHERE name = 5").where,
                        row, ()) is False
        assert evaluate(parse("SELECT * FROM t WHERE name <> 5").where,
                        row, ()) is True
        with pytest.raises(TypeError):
            evaluate(parse("SELECT * FROM t WHERE name < 5").where, row, ())

    def test_every_comparison_operator(self):
        for op, expected in [("=", False), ("<>", True), ("<", True),
                             ("<=", True), (">", False), (">=", False)]:
            expr = parse(f"SELECT * FROM t WHERE a {op} 2").where
            assert evaluate(expr, {"a": 1}, ()) is expected, op
            assert evaluate(expr, {"a": None}, ()) is None, op

    def test_params_bind_in_order(self):
        expr = parse("SELECT * FROM t WHERE a = ? AND b = ?").where
        assert evaluate(expr, {"a": 1, "b": 2}, (1, 2)) is True
        assert evaluate(expr, {"a": 1, "b": 2}, (1, 3)) is False

    def test_columns_in(self):
        expr = parse("SELECT * FROM t WHERE a + b = c").where
        assert columns_in(expr) == {"a", "b", "c"}

    def test_equality_bindings_extraction(self):
        expr = parse("SELECT * FROM t WHERE a = 1 AND 2 = b AND c > 3").where
        assert equality_bindings(expr, ()) == {"a": 1, "b": 2}

    def test_or_does_not_produce_bindings(self):
        expr = parse("SELECT * FROM t WHERE a = 1 OR b = 2").where
        assert equality_bindings(expr, ()) == {}


def reference_evaluate(expr, row, params):
    """The recursive tree walker the executor used before expressions were
    compiled: the specification :func:`compile_expr` must match."""
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
        value = reference_evaluate(expr.operand, row, params)
        if expr.op == "NOT":
            return None if value is None else not value
        if expr.op == "-":
            return None if value is None else -value
        raise SqlError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            left = reference_evaluate(expr.left, row, params)
            if left is not None and not left:
                return False
            right = reference_evaluate(expr.right, row, params)
            if right is not None and not right:
                return False
            return None if left is None or right is None else True
        if expr.op == "OR":
            left = reference_evaluate(expr.left, row, params)
            if left:
                return True
            right = reference_evaluate(expr.right, row, params)
            if right:
                return True
            return None if left is None or right is None else False
        left = reference_evaluate(expr.left, row, params)
        right = reference_evaluate(expr.right, row, params)
        compare = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                   "<=": operator.le, ">": operator.gt,
                   ">=": operator.ge}.get(expr.op)
        if compare is not None:
            if left is None or right is None:
                return None
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


_VALUES = st.one_of(st.none(), st.integers(min_value=-3, max_value=3),
                    st.sampled_from(["", "a", "bc"]))
_COLUMNS = ("a", "b", "c")
_BINARY_OPS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"]
_CONSTANTS = st.one_of(st.builds(Literal, _VALUES),
                       st.builds(Param, st.integers(min_value=0, max_value=3)))
_COLUMN_REFS = st.builds(ColumnRef, st.sampled_from(_COLUMNS + ("missing",)))
_LEAVES = st.one_of(
    _CONSTANTS, _COLUMN_REFS,
    # ``col op constant``, the shape compiled into a single closure.
    st.builds(BinaryOp, st.sampled_from(_BINARY_OPS), _COLUMN_REFS,
              _CONSTANTS))


def _trees(children):
    return st.one_of(
        st.builds(UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(BinaryOp, st.sampled_from(_BINARY_OPS + ["AND", "OR"]),
                  children, children))


def _outcome(fn, *args):
    """``("ok", type, value)`` or ``("raised", exception type)``."""
    try:
        value = fn(*args)
    except Exception as exc:  # the comparison is over the exception type
        return ("raised", type(exc))
    return ("ok", type(value), value)


class TestCompiledExpressions:
    @settings(max_examples=1000, deadline=None)
    @given(expr=st.recursive(_LEAVES, _trees, max_leaves=8),
           row=st.fixed_dictionaries({column: _VALUES
                                      for column in _COLUMNS}),
           params=st.lists(_VALUES, max_size=3))
    def test_compiled_matches_the_tree_walker(self, expr, row, params):
        """Same value of the same type, or the same exception type, as the
        recursive walker, over NULLs, mixed types, missing parameters,
        division by zero and Kleene logic."""
        assert _outcome(lambda: compile_expr(expr, params)(row)) == \
            _outcome(reference_evaluate, expr, row, params)

    def test_missing_parameter_raises_only_per_row(self):
        where = parse("SELECT * FROM t WHERE a > ? OR a = ?").where
        predicate = compile_expr(where, (1,))
        with pytest.raises(SqlError):
            predicate({"a": 0})
        assert predicate({"a": 2}) is True  # OR stops before the missing ?


@pytest.fixture()
def db_session():
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session = db.session()
    session.execute("CREATE TABLE users (id INT PRIMARY KEY, name TEXT, "
                    "age INT, city TEXT)")
    session.execute("INSERT INTO users (id, name, age, city) VALUES "
                    "(1, 'ann', 34, 'berlin'), (2, 'bob', 28, 'paris'), "
                    "(3, 'cho', 41, 'berlin'), (4, 'dee', 28, 'tokyo')")
    db.run_for(0.2)
    return db, session


class TestEndToEnd:
    def test_point_select(self, db_session):
        _db, session = db_session
        rows = session.execute("SELECT * FROM users WHERE id = 2")
        assert rows == [{"id": 2, "name": "bob", "age": 28, "city": "paris"}]

    def test_point_select_with_params(self, db_session):
        _db, session = db_session
        rows = session.execute("SELECT name FROM users WHERE id = ?", (3,))
        assert rows == [{"name": "cho"}]

    def test_predicate_scan(self, db_session):
        _db, session = db_session
        rows = session.execute(
            "SELECT name FROM users WHERE city = 'berlin' ORDER BY name")
        assert [row["name"] for row in rows] == ["ann", "cho"]

    def test_predicate_scan_on_mixed_types_matches_nothing(self, db_session):
        _db, session = db_session
        assert session.execute("SELECT id FROM users WHERE name = 5") == []
        rows = session.execute("SELECT id FROM users WHERE name <> 5")
        assert sorted(row["id"] for row in rows) == [1, 2, 3, 4]

    def test_not_over_a_null_comparison_matches_nothing(self, db_session):
        """``NOT a = 5`` is unknown where ``a`` is NULL, like ``a <> 5``;
        a WHERE keeps only rows whose predicate is true."""
        _db, session = db_session
        session.execute("INSERT INTO users (id, name, age, city) VALUES "
                        "(5, 'eve', NULL, 'oslo')")
        for predicate, expected in [("NOT age = 28", [1, 3]),
                                    ("age <> 28", [1, 3]),
                                    ("NOT (age = 28 OR id = 1)", [3]),
                                    ("age = 28 OR city = 'oslo'", [2, 4, 5])]:
            rows = session.execute(f"SELECT id FROM users WHERE {predicate}")
            assert sorted(row["id"] for row in rows) == expected, predicate

    def test_aggregates(self, db_session):
        _db, session = db_session
        result = session.execute(
            "SELECT COUNT(*) AS n, AVG(age) AS mean FROM users")
        assert result == [{"n": 4, "mean": pytest.approx(32.75)}]

    def test_order_and_limit(self, db_session):
        _db, session = db_session
        rows = session.execute(
            "SELECT id FROM users ORDER BY age DESC LIMIT 2")
        assert [row["id"] for row in rows] == [3, 1]

    def test_update_rmw_pushdown(self, db_session):
        _db, session = db_session
        result = session.execute(
            "UPDATE users SET age = age + 1 WHERE id = 1")
        assert result["status"] == "updated"
        assert result["count"] == 1
        assert result["commit_ts"] > 0
        rows = session.execute("SELECT age FROM users WHERE id = 1")
        assert rows[0]["age"] == 35

    def test_update_by_predicate(self, db_session):
        _db, session = db_session
        result = session.execute(
            "UPDATE users SET city = 'munich' WHERE city = 'berlin'")
        assert result["count"] == 2

    def test_update_cross_column_expression(self, db_session):
        _db, session = db_session
        session.execute("UPDATE users SET age = id * 10 WHERE id = 4")
        rows = session.execute("SELECT age FROM users WHERE id = 4")
        assert rows[0]["age"] == 40

    def test_delete(self, db_session):
        _db, session = db_session
        result = session.execute("DELETE FROM users WHERE age = 28")
        assert result["count"] == 2
        remaining = session.execute("SELECT COUNT(*) AS n FROM users")
        assert remaining[0]["n"] == 2

    def test_explicit_transaction(self, db_session):
        _db, session = db_session
        session.execute("BEGIN")
        session.execute("INSERT INTO users (id, name, age, city) VALUES "
                        "(9, 'zed', 50, 'oslo')")
        session.execute("ROLLBACK")
        rows = session.execute("SELECT * FROM users WHERE id = 9")
        assert rows == []

    def test_transaction_commit(self, db_session):
        _db, session = db_session
        session.execute("BEGIN")
        session.execute("UPDATE users SET age = 99 WHERE id = 1")
        session.execute("COMMIT")
        assert session.execute("SELECT age FROM users WHERE id = 1") == \
            [{"age": 99}]

    def test_a_row_deleted_by_its_own_transaction_is_gone_to_it(
            self, db_session):
        """After its own DELETE, a transaction finds no row to update or
        read for update, and may insert the key afresh."""
        _db, session = db_session
        session.execute("BEGIN")
        session.execute("DELETE FROM users WHERE id = 1")
        result = session.execute("UPDATE users SET age = 1 WHERE id = 1")
        assert result["count"] == 0
        # A computed SET reads the row for update first: nothing either.
        result = session.execute("UPDATE users SET age = id * 10 WHERE id = 1")
        assert result["count"] == 0
        assert session.execute("SELECT * FROM users WHERE id = 1") == []
        session.execute("INSERT INTO users (id, name, age, city) VALUES "
                        "(1, 'new', 7, 'oslo')")
        session.execute("COMMIT")
        assert session.execute("SELECT name, age FROM users WHERE id = 1") \
            == [{"name": "new", "age": 7}]

    def test_create_index_via_sql(self, db_session):
        db, session = db_session
        session.execute("CREATE INDEX ON users (city)")
        for primary in db.primaries:
            assert primary.engine.table("users").has_index("city")

    def test_replicated_table_via_sql(self, db_session):
        db, session = db_session
        session.execute("CREATE TABLE config (k TEXT PRIMARY KEY, v TEXT) "
                        "DISTRIBUTE BY REPLICATION")
        session.execute("INSERT INTO config (k, v) VALUES ('mode', 'on')")
        rows = session.execute("SELECT v FROM config WHERE k = 'mode'")
        assert rows == [{"v": "on"}]
        assert db.shard_map.is_replicated("config")

    def test_duplicate_insert_raises(self, db_session):
        _db, session = db_session
        from repro.errors import TransactionAborted
        with pytest.raises(TransactionAborted):
            session.execute("INSERT INTO users (id, name, age, city) VALUES "
                            "(1, 'dup', 1, 'x')")

    def test_integral_float_key_finds_the_int_row(self):
        """``WHERE id = 1.0`` routes to the shard ``id = 1`` lives on, even
        when it is the first lookup after DDL cleared the placement memo,
        and does not let a second ``id = 1`` land on another shard."""
        from repro.errors import TransactionAborted

        db = build_cluster(ClusterConfig.globaldb(three_city(), seed=1))
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        session.execute("CREATE TABLE other (id INT PRIMARY KEY)")
        assert session.execute("SELECT * FROM t WHERE id = 1.0") == [
            {"id": 1, "v": 10}]
        assert session.execute("SELECT * FROM t WHERE id = 1") == [
            {"id": 1, "v": 10}]
        with pytest.raises(TransactionAborted):
            session.execute("INSERT INTO t (id, v) VALUES (1, 20)")

    def test_empty_table_scan_with_a_missing_parameter(self, db_session):
        """A missing ``?`` fails a row's evaluation, not the statement's
        compilation: no row, no error."""
        _db, session = db_session
        session.execute("CREATE TABLE empty (id INT PRIMARY KEY, v INT)")
        assert session.execute("SELECT * FROM empty WHERE v > ?") == []
        with pytest.raises(SqlError):
            session.execute("SELECT * FROM users WHERE age > ?")
        assert session.execute("SELECT COUNT(*) AS n FROM users") == [
            {"n": 4}]

    def test_prepared_statement_cache(self, db_session):
        _db, session = db_session
        session.execute("SELECT name FROM users WHERE id = ?", (1,))
        size_after_first = len(session._statement_cache)
        for i in (2, 3, 4):
            session.execute("SELECT name FROM users WHERE id = ?", (i,))
        assert len(session._statement_cache) == size_after_first

    def test_prepared_statements_leave_no_cyclic_garbage(self, db_session):
        """Reference counting frees everything a statement allocates: with
        the collector off, a loop of prepared point reads, updates and
        predicate scans leaves nothing for ``gc.collect()`` to find."""
        _db, session = db_session
        statements = [
            ("SELECT name FROM users WHERE id = ? AND age > 0", (2,)),
            ("UPDATE users SET age = age + 1 WHERE id = ?", (3,)),
            ("SELECT COUNT(*) AS n FROM users WHERE city = ?", ("berlin",)),
        ]
        for sql, params in statements:  # warm the statement cache
            session.execute(sql, params)
        was_enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(20):
                for sql, params in statements:
                    session.execute(sql, params)
            found = gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage[:10]]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert found == 0, garbage


@pytest.fixture()
def nullable_session():
    """The table of the two repros below: a text column, a zero and a NULL."""
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session = db.session()
    session.execute("CREATE TABLE users (id INT PRIMARY KEY, name TEXT, "
                    "age INT)")
    session.execute("INSERT INTO users (id, name, age) VALUES "
                    "(1, 'ann', 0), (2, 'bob', NULL), (3, 'cy', 5)")
    return db, session


class TestStatementErrors:
    def test_raising_predicate_fails_only_its_statement(self,
                                                        nullable_session):
        """Each data node answers a predicate that raises with an error
        reply, so no handler's exception surfaces in a later statement."""
        _db, session = nullable_session
        with pytest.raises(SqlError) as raised:
            session.execute("SELECT * FROM users WHERE name < 5")
        assert isinstance(raised.value.__cause__, TypeError)
        with pytest.raises(SqlError) as raised:
            session.execute("SELECT * FROM users WHERE 10 / age > 1")
        assert isinstance(raised.value.__cause__, ZeroDivisionError)
        assert session.execute("SELECT COUNT(*) AS n FROM users") == [
            {"n": 3}]

    def test_raising_predicate_aborts_its_transaction(self,
                                                      nullable_session):
        _db, session = nullable_session
        with pytest.raises(SqlError):
            session.execute("UPDATE users SET age = 1 WHERE name < 5")
        session.execute("BEGIN")
        session.execute("UPDATE users SET age = 7 WHERE id = 3")
        with pytest.raises(SqlError):
            session.execute("DELETE FROM users WHERE 10 / age > 1")
        assert not session.in_txn
        assert session.execute("SELECT age FROM users WHERE id = 3") == [
            {"age": 5}]
        assert session.execute("SELECT COUNT(*) AS n FROM users") == [
            {"n": 3}]

    @pytest.mark.parametrize("assignment", [
        "age = age / 0",     # evaluated on the data node
        "age = name + 1",    # evaluated on the coordinator
    ])
    def test_raising_set_value_releases_its_row_lock(self, nullable_session,
                                                     assignment):
        db, session = nullable_session
        with pytest.raises(SqlError):
            session.execute(f"UPDATE users SET {assignment} WHERE id = 3")
        other = db.session()
        result = other.execute("UPDATE users SET age = 6 WHERE id = 3")
        assert result["count"] == 1 and result["commit_ts"] > 0
        assert session.execute("SELECT age FROM users WHERE id = 3") == [
            {"age": 6}]

    def test_order_by_sorts_nulls_last_ascending_first_descending(
            self, nullable_session):
        _db, session = nullable_session
        rows = session.execute("SELECT id FROM users ORDER BY age")
        assert [row["id"] for row in rows] == [1, 3, 2]
        rows = session.execute("SELECT id FROM users ORDER BY age DESC "
                               "LIMIT 2")
        assert [row["id"] for row in rows] == [2, 3]
