"""SQL abstract syntax tree nodes."""

from __future__ import annotations

import typing
from dataclasses import dataclass


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    value: typing.Any


@dataclass(frozen=True)
class Param:
    """A ``?`` placeholder, numbered left to right from 0."""

    index: int


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class BinaryOp:
    op: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', 'AND', 'OR'
    left: typing.Any
    right: typing.Any


@dataclass(frozen=True)
class UnaryOp:
    op: str  # 'NOT', '-'
    operand: typing.Any


@dataclass(frozen=True)
class Aggregate:
    func: str  # 'COUNT', 'SUM', 'AVG', 'MIN', 'MAX'
    argument: typing.Any  # ColumnRef or '*' (for COUNT)
    alias: str | None = None


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    expr: typing.Any  # ColumnRef | Aggregate | '*'
    alias: str | None = None


@dataclass(frozen=True)
class Select:
    table: str
    items: tuple
    where: typing.Any | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple
    rows: tuple  # tuple of tuples of expressions


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple  # of (column, expression)
    where: typing.Any | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: typing.Any | None = None


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple  # of (name, type)
    primary_key: tuple
    distribution: str = "hash"  # 'hash' | 'replicated'
    distribution_column: str | None = None


@dataclass(frozen=True)
class CreateIndex:
    table: str
    column: str


@dataclass(frozen=True)
class BeginTxn:
    pass


@dataclass(frozen=True)
class CommitTxn:
    pass


@dataclass(frozen=True)
class RollbackTxn:
    pass
