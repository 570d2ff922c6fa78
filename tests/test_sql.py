"""Tests for the SQL front-end: lexer, parser, and end-to-end execution."""

import pytest

from repro import ClusterConfig, build_cluster, one_region
from repro.errors import SqlError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    CreateTable,
    Insert,
    Param,
    Select,
    Update,
)
from repro.sql.executor import columns_in, equality_bindings, evaluate
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
    def test_null_comparison_is_false(self):
        expr = parse("SELECT * FROM t WHERE a = 1").where
        assert evaluate(expr, {"a": None}, ()) is False

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
            assert evaluate(expr, {"a": None}, ()) is False, op

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

    def test_prepared_statement_cache(self, db_session):
        _db, session = db_session
        session.execute("SELECT name FROM users WHERE id = ?", (1,))
        size_after_first = len(session._statement_cache)
        for i in (2, 3, 4):
            session.execute("SELECT name FROM users WHERE id = ?", (i,))
        assert len(session._statement_cache) == size_after_first
