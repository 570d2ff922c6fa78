"""Table catalog: schemas, distribution specs, and DDL timestamps.

The catalog tracks, per table, the commit timestamp of the last DDL that
touched it, plus the global maximum DDL timestamp. The ROR router uses
these for the paper's two DDL-fencing rules (§IV-A): a replica read is
allowed if the RCP has passed the global max DDL timestamp, or failing
that, the DDL timestamp of every table the query touches.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import StorageError, TableNotFoundError


@dataclass(frozen=True)
class ColumnDef:
    """A column: name plus a coarse type tag ('int', 'float', 'text')."""

    name: str
    type: str = "text"


@dataclass(frozen=True)
class DistributionSpec:
    """How a table's rows are spread over shards.

    ``method`` is 'hash' (on ``column``), 'range' (on ``column``, with
    boundaries decided by the sharding layer), or 'replicated' (full copy on
    every shard — used for small read-mostly tables like TPC-C ITEM).
    """

    method: str = "hash"
    column: str | None = None


@dataclass
class TableSchema:
    """Schema of one table."""

    name: str
    columns: list[ColumnDef]
    primary_key: tuple[str, ...]
    distribution: DistributionSpec = field(default_factory=DistributionSpec)
    #: The paper's future-work feature, implemented here: a table can opt
    #: into synchronous replication — commits touching it wait for every
    #: replica's ack, trading update latency for maximum read freshness —
    #: while the rest of the database stays asynchronous.
    sync_replication: bool = False

    def __post_init__(self) -> None:
        if self.distribution.method not in ("hash", "range", "replicated"):
            raise StorageError(
                f"unknown distribution method {self.distribution.method!r} "
                f"for table {self.name} (use 'hash', 'range', or "
                f"'replicated')")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column in table {self.name}")
        for key_column in self.primary_key:
            if key_column not in names:
                raise StorageError(
                    f"primary key column {key_column!r} not in table {self.name}")
        if (self.distribution.method in ("hash", "range")
                and self.distribution.column is None):
            # Default distribution key: the first primary-key column.
            self.distribution = DistributionSpec(
                self.distribution.method, self.primary_key[0])

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def key_of(self, row: typing.Mapping[str, typing.Any]) -> tuple:
        """Extract the primary-key tuple from a row."""
        try:
            return tuple(row[column] for column in self.primary_key)
        except KeyError as exc:
            raise StorageError(
                f"row for {self.name} missing primary key column {exc}") from None


class Catalog:
    """All table schemas known to one node, plus DDL timestamps."""

    def __init__(self):
        self._tables: dict[str, TableSchema] = {}
        self._ddl_ts: dict[str, int] = {}
        self.max_ddl_ts: int = 0

    def create_table(self, schema: TableSchema, ddl_ts: int = 0) -> None:
        if schema.name in self._tables:
            raise StorageError(f"table {schema.name} already exists")
        self._tables[schema.name] = schema
        self._touch(schema.name, ddl_ts)

    def drop_table(self, name: str, ddl_ts: int = 0) -> None:
        if name not in self._tables:
            raise TableNotFoundError(name)
        del self._tables[name]
        self._touch(name, ddl_ts)

    def table(self, name: str) -> TableSchema:
        schema = self._tables.get(name)
        if schema is None:
            raise TableNotFoundError(name)
        return schema

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> list[str]:
        return list(self._tables)

    def copy(self) -> Catalog:
        clone = Catalog()
        clone._tables = dict(self._tables)
        clone._ddl_ts = dict(self._ddl_ts)
        clone.max_ddl_ts = self.max_ddl_ts
        return clone

    def _touch(self, name: str, ddl_ts: int) -> None:
        self._ddl_ts[name] = max(self._ddl_ts.get(name, 0), ddl_ts)
        self.max_ddl_ts = max(self.max_ddl_ts, ddl_ts)

    def record_ddl(self, name: str, ddl_ts: int) -> None:
        """Record a DDL timestamp for a table (e.g. index create/drop)."""
        self._touch(name, ddl_ts)

    def ddl_ts(self, name: str) -> int:
        """DDL timestamp of the last DDL touching ``name`` (0 if never)."""
        return self._ddl_ts.get(name, 0)
