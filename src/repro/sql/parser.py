"""Recursive-descent SQL parser."""

from __future__ import annotations

from repro.errors import SqlError
from repro.sql.ast_nodes import (
    Aggregate,
    BeginTxn,
    BinaryOp,
    ColumnRef,
    CommitTxn,
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Literal,
    Param,
    RollbackTxn,
    Select,
    SelectItem,
    UnaryOp,
    Update,
)
from repro.sql.lexer import Token, tokenize

_TYPE_MAP = {"INT": "int", "BIGINT": "int", "FLOAT": "float",
             "DOUBLE": "float", "TEXT": "text", "VARCHAR": "text"}
_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


def parse(text: str):
    """Parse one SQL statement into its AST node."""
    return _Parser(tokenize(text)).parse_statement()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0
        self.param_count = 0

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def check(self, kind: str, value=None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value=None) -> Token | None:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value=None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            want = value or kind
            raise SqlError(f"expected {want!r}, got {actual.value!r} "
                           f"at position {actual.position}")
        return token

    def expect_ident(self) -> str:
        return self.expect("ident").value

    # -- statements ------------------------------------------------------
    def parse_statement(self):
        token = self.peek()
        if token.kind != "kw":
            raise SqlError(f"statement must start with a keyword, got "
                           f"{token.value!r}")
        dispatch = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "CREATE": self._create,
            "BEGIN": lambda: (self.advance(), BeginTxn())[1],
            "COMMIT": lambda: (self.advance(), CommitTxn())[1],
            "ROLLBACK": lambda: (self.advance(), RollbackTxn())[1],
        }
        handler = dispatch.get(token.value)
        if handler is None:
            raise SqlError(f"unsupported statement {token.value}")
        statement = handler()
        self.accept("punct", ";")
        self.expect("end")
        return statement

    def _select(self) -> Select:
        self.expect("kw", "SELECT")
        items = [self._select_item()]
        while self.accept("punct", ","):
            items.append(self._select_item())
        self.expect("kw", "FROM")
        table = self.expect_ident()
        where = self._optional_where()
        order_by = None
        descending = False
        if self.accept("kw", "ORDER"):
            self.expect("kw", "BY")
            order_by = self.expect_ident()
            if self.accept("kw", "DESC"):
                descending = True
            else:
                self.accept("kw", "ASC")
        limit = None
        if self.accept("kw", "LIMIT"):
            limit = self.expect("number").value
        return Select(table=table, items=tuple(items), where=where,
                      order_by=order_by, descending=descending, limit=limit)

    def _select_item(self) -> SelectItem:
        if self.accept("punct", "*"):
            return SelectItem(expr="*")
        token = self.peek()
        if token.kind == "kw" and token.value in _AGGREGATES:
            func = self.advance().value
            self.expect("punct", "(")
            if self.accept("punct", "*"):
                argument = "*"
                if func != "COUNT":
                    raise SqlError(f"{func}(*) is not valid")
            else:
                argument = ColumnRef(self.expect_ident())
            self.expect("punct", ")")
            alias = self.expect_ident() if self.accept("kw", "AS") else None
            return SelectItem(expr=Aggregate(func, argument, alias))
        expr = self._expression()
        alias = self.expect_ident() if self.accept("kw", "AS") else None
        return SelectItem(expr=expr, alias=alias)

    def _insert(self) -> Insert:
        self.expect("kw", "INSERT")
        self.expect("kw", "INTO")
        table = self.expect_ident()
        self.expect("punct", "(")
        columns = [self.expect_ident()]
        while self.accept("punct", ","):
            columns.append(self.expect_ident())
        self.expect("punct", ")")
        self.expect("kw", "VALUES")
        rows = [self._value_row(len(columns))]
        while self.accept("punct", ","):
            rows.append(self._value_row(len(columns)))
        return Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def _value_row(self, expected_width: int) -> tuple:
        self.expect("punct", "(")
        values = [self._expression()]
        while self.accept("punct", ","):
            values.append(self._expression())
        self.expect("punct", ")")
        if len(values) != expected_width:
            raise SqlError(f"VALUES row has {len(values)} values, "
                           f"expected {expected_width}")
        return tuple(values)

    def _update(self) -> Update:
        self.expect("kw", "UPDATE")
        table = self.expect_ident()
        self.expect("kw", "SET")
        assignments = [self._assignment()]
        while self.accept("punct", ","):
            assignments.append(self._assignment())
        return Update(table=table, assignments=tuple(assignments),
                      where=self._optional_where())

    def _assignment(self) -> tuple:
        column = self.expect_ident()
        self.expect("punct", "=")
        return column, self._expression()

    def _delete(self) -> Delete:
        self.expect("kw", "DELETE")
        self.expect("kw", "FROM")
        table = self.expect_ident()
        return Delete(table=table, where=self._optional_where())

    def _create(self):
        self.expect("kw", "CREATE")
        if self.accept("kw", "INDEX"):
            self.expect("kw", "ON")
            table = self.expect_ident()
            self.expect("punct", "(")
            column = self.expect_ident()
            self.expect("punct", ")")
            return CreateIndex(table=table, column=column)
        self.expect("kw", "TABLE")
        table = self.expect_ident()
        self.expect("punct", "(")
        columns: list[tuple] = []
        primary_key: tuple = ()
        while True:
            if self.accept("kw", "PRIMARY"):
                self.expect("kw", "KEY")
                self.expect("punct", "(")
                keys = [self.expect_ident()]
                while self.accept("punct", ","):
                    keys.append(self.expect_ident())
                self.expect("punct", ")")
                primary_key = tuple(keys)
            else:
                name = self.expect_ident()
                type_token = self.expect("kw")
                sql_type = _TYPE_MAP.get(type_token.value)
                if sql_type is None:
                    raise SqlError(f"unknown column type {type_token.value}")
                if type_token.value == "VARCHAR" and self.accept("punct", "("):
                    self.expect("number")
                    self.expect("punct", ")")
                columns.append((name, sql_type))
                if self.accept("kw", "PRIMARY"):
                    self.expect("kw", "KEY")
                    primary_key = (name,)
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        distribution = "hash"
        distribution_column = None
        if self.accept("kw", "DISTRIBUTE"):
            self.expect("kw", "BY")
            if self.accept("kw", "REPLICATION"):
                distribution = "replicated"
            else:
                self.expect("kw", "HASH")
                self.expect("punct", "(")
                distribution_column = self.expect_ident()
                self.expect("punct", ")")
        if not primary_key:
            raise SqlError(f"table {table} needs a primary key")
        return CreateTable(table=table, columns=tuple(columns),
                           primary_key=primary_key, distribution=distribution,
                           distribution_column=distribution_column)

    def _optional_where(self):
        if self.accept("kw", "WHERE"):
            return self._expression()
        return None

    # -- expressions (precedence climbing) --------------------------------
    def _expression(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self.accept("kw", "OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self.accept("kw", "AND"):
            left = BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self):
        if self.accept("kw", "NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        for op in ("<=", ">=", "<>", "!=", "=", "<", ">"):
            if self.check("punct", op):
                self.advance()
                normalized = "<>" if op == "!=" else op
                return BinaryOp(normalized, left, self._additive())
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            if self.accept("punct", "+"):
                left = BinaryOp("+", left, self._multiplicative())
            elif self.accept("punct", "-"):
                left = BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._primary()
        while True:
            if self.accept("punct", "*"):
                left = BinaryOp("*", left, self._primary())
            elif self.accept("punct", "/"):
                left = BinaryOp("/", left, self._primary())
            else:
                return left

    def _primary(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Literal(token.value)
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if self.accept("kw", "NULL"):
            return Literal(None)
        if self.accept("kw", "TRUE"):
            return Literal(True)
        if self.accept("kw", "FALSE"):
            return Literal(False)
        if self.accept("punct", "?"):
            param = Param(self.param_count)
            self.param_count += 1
            return param
        if self.accept("punct", "-"):
            return UnaryOp("-", self._primary())
        if self.accept("punct", "("):
            expr = self._expression()
            self.expect("punct", ")")
            return expr
        if token.kind == "ident":
            self.advance()
            return ColumnRef(token.value)
        raise SqlError(f"unexpected token {token.value!r} at "
                       f"position {token.position}")
