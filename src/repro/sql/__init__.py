"""A small SQL front-end for the computing node.

Supports the statement shapes the paper's workloads and examples need:

- ``CREATE TABLE t (col TYPE, ...) [PRIMARY KEY (a, b)] [DISTRIBUTE BY
  HASH(col) | REPLICATION]``, ``CREATE INDEX ON t (col)``
- ``INSERT INTO t (cols...) VALUES (...), (...)``
- ``SELECT cols | * | aggregates FROM t [WHERE expr] [ORDER BY col [DESC]]
  [LIMIT n]``
- ``UPDATE t SET col = expr, ... [WHERE expr]``
- ``DELETE FROM t [WHERE expr]``
- ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``

Point lookups on the full primary key become single-shard reads; equality
on the distribution column prunes to one shard; everything else is a
predicate scan across shards. Parameters use ``?`` placeholders.
"""

from repro.sql.executor import SqlExecutor
from repro.sql.parser import parse

__all__ = ["parse", "SqlExecutor"]
