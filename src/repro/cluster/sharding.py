"""Sharding: distributing table rows over data-node groups.

A *shard* is one primary data node plus its replicas. Tables declare a
distribution (hash on a column, range on a column, or replicated); the
:class:`ShardMap` resolves a row or key to the shard(s) that store it.

Hash distribution uses a stable hash (not Python's randomized ``hash``) so
placements are reproducible across runs and processes.
"""

from __future__ import annotations

import hashlib
import typing

from repro.errors import StorageError
from repro.storage.catalog import TableSchema


def stable_hash(value: typing.Any) -> int:
    """A deterministic hash for distribution keys. Values equal under
    ``==`` hash alike: a bool or an integral float hashes as its int, so
    ``WHERE id = 1.0`` finds the row ``id = 1`` was stored under."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and value.is_integer()):
        value = int(value)
    digest = hashlib.md5(repr(value).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ShardMap:
    """Maps keys to shards for every known table."""

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise StorageError(f"need at least one shard, got {shard_count}")
        self.shard_count = shard_count
        self._schemas: dict[str, TableSchema] = {}
        #: table -> sorted list of (upper_bound_exclusive, shard) for range
        #: distribution; computed from observed bounds at registration.
        self._range_bounds: dict[str, list[tuple[typing.Any, int]]] = {}
        #: (table, dist_value) -> shard. Sound because the mapping is a
        #: pure function of shard_count (fixed) and the table's
        #: registration; cleared whenever a registration changes.
        self._value_cache: dict[tuple, int] = {}
        #: table -> position of the distribution column in the primary
        #: key, or None when the key does not determine the shard.
        self._key_plan: dict[str, int | None] = {}

    def register(self, schema: TableSchema,
                 range_bounds: list[tuple[typing.Any, int]] | None = None) -> None:
        """Register a table. ``range_bounds`` is required for range
        distribution: a sorted list of (upper_bound_exclusive, shard_id),
        with the last entry covering the remainder via ``None``."""
        self._schemas[schema.name] = schema
        if schema.distribution.method == "range":
            if not range_bounds:
                raise StorageError(
                    f"range-distributed table {schema.name} needs range_bounds")
            self._range_bounds[schema.name] = list(range_bounds)
        self._value_cache.clear()
        self._key_plan.clear()

    def unregister(self, table: str) -> None:
        self._schemas.pop(table, None)
        self._range_bounds.pop(table, None)
        self._value_cache.clear()
        self._key_plan.clear()

    def schema(self, table: str) -> TableSchema:
        schema = self._schemas.get(table)
        if schema is None:
            raise StorageError(f"table {table} not registered with shard map")
        return schema

    def is_replicated(self, table: str) -> bool:
        return self.schema(table).distribution.method == "replicated"

    # ------------------------------------------------------------------
    def shard_for_value(self, table: str, dist_value: typing.Any) -> int:
        """Shard id for a distribution-key value (memoized: the stable
        hash is an md5, far more expensive than a dict probe)."""
        cache_key = (table, dist_value)
        shard = self._value_cache.get(cache_key)
        if shard is not None:
            return shard
        schema = self.schema(table)
        method = schema.distribution.method
        if method == "hash":
            shard = stable_hash(dist_value) % self.shard_count
        elif method == "range":
            shard = None
            for upper, bound_shard in self._range_bounds[table]:
                if upper is None or dist_value < upper:
                    shard = bound_shard
                    break
            if shard is None:
                raise StorageError(
                    f"value {dist_value!r} outside range bounds of {table}")
        else:
            raise StorageError(
                f"table {table} is replicated; reads may use any shard")
        self._value_cache[cache_key] = shard
        return shard

    def shard_for_row(self, table: str, row: typing.Mapping[str, typing.Any]) -> int:
        schema = self.schema(table)
        if schema.distribution.method == "replicated":
            raise StorageError(
                f"table {table} is replicated; writes touch every shard")
        column = schema.distribution.column
        if column not in row:
            raise StorageError(
                f"row for {table} missing distribution column {column!r}")
        return self.shard_for_value(table, row[column])

    def shard_for_key(self, table: str, key: tuple) -> int | None:
        """Shard for a primary-key lookup, or None when the key does not
        determine the shard (distribution column outside the PK)."""
        try:
            index = self._key_plan[table]
        except KeyError:
            schema = self.schema(table)
            index = None
            if schema.distribution.method != "replicated":
                column = schema.distribution.column
                if column in schema.primary_key:
                    index = schema.primary_key.index(column)
            self._key_plan[table] = index
        if index is None:
            return None
        return self.shard_for_value(table, key[index])

    def write_shards(self, table: str, row: typing.Mapping[str, typing.Any]
                     ) -> list[int]:
        """All shards a row write must touch."""
        if self.is_replicated(table):
            return list(range(self.shard_count))
        return [self.shard_for_row(table, row)]

    def all_shards(self) -> list[int]:
        return list(range(self.shard_count))
