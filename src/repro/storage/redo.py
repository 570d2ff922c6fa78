"""Redo log record types.

The redo stream is the only channel from a primary to its replicas. Record
types mirror the paper's §IV-A:

- Data records (``INSERT``/``UPDATE``/``DELETE``) carry the writing
  transaction id; their visibility is resolved later by the commit record.
- ``PENDING_COMMIT`` is written *before* the transaction obtains its commit
  timestamp; replaying it locks the transaction's tuples on the replica so
  reads cannot observe a gap caused by out-of-order commit-record writes.
- ``PREPARE`` / ``COMMIT_PREPARED`` / ``ABORT_PREPARED`` carry two-phase
  commit outcomes; a prepared transaction blocks replica visibility checks
  until its outcome record is replayed.
- ``HEARTBEAT`` carries a fresh timestamp so idle replicas keep advancing
  their max applied commit timestamp (needed for a monotone RCP).
- ``DDL`` carries catalog changes plus the DDL timestamp used by the ROR
  DDL-fencing rules.

Each record estimates its wire size so the shipping layer can do byte
accounting (compression, bandwidth, Nagle).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

#: Fixed per-record framing overhead in bytes (header, CRC, LSN).
RECORD_HEADER_BYTES = 32


def _row_bytes(row: typing.Mapping[str, typing.Any] | None) -> int:
    """Rough serialized size of a row payload."""
    if not row:
        return 0
    total = 0
    for key, value in row.items():
        total += len(key) + 2
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, (int, float)):
            total += 8
        elif value is None:
            total += 1
        else:
            total += len(str(value))
    return total


@dataclass(slots=True)
class RedoRecord:
    """Base redo record. ``lsn`` is assigned when appended to the WAL, and
    ``wire_bytes`` — :meth:`size_bytes` as of that moment — with it, so the
    WAL and every shipper read one number instead of each re-walking the
    row."""

    txid: int
    lsn: int = field(default=0, kw_only=True)
    wire_bytes: int = field(default=0, kw_only=True, compare=False, repr=False)

    def size_bytes(self) -> int:
        return RECORD_HEADER_BYTES


@dataclass(slots=True)
class RedoInsert(RedoRecord):
    table: str = ""
    key: tuple = ()
    row: dict = field(default_factory=dict)

    def size_bytes(self) -> int:
        return RECORD_HEADER_BYTES + _row_bytes(self.row)


@dataclass(slots=True)
class RedoUpdate(RedoRecord):
    table: str = ""
    key: tuple = ()
    row: dict = field(default_factory=dict)

    def size_bytes(self) -> int:
        return RECORD_HEADER_BYTES + _row_bytes(self.row)


@dataclass(slots=True)
class RedoDelete(RedoRecord):
    table: str = ""
    key: tuple = ()

    def size_bytes(self) -> int:
        return RECORD_HEADER_BYTES + 16


@dataclass(slots=True)
class RedoPendingCommit(RedoRecord):
    """Written before the transaction obtains its commit timestamp."""


@dataclass(slots=True)
class RedoCommit(RedoRecord):
    commit_ts: int = 0


@dataclass(slots=True)
class RedoAbort(RedoRecord):
    pass


@dataclass(slots=True)
class RedoPrepare(RedoRecord):
    """2PC phase one: the transaction is prepared on this shard."""


@dataclass(slots=True)
class RedoCommitPrepared(RedoRecord):
    commit_ts: int = 0


@dataclass(slots=True)
class RedoAbortPrepared(RedoRecord):
    pass


@dataclass(slots=True)
class RedoDdl(RedoRecord):
    """A catalog change. ``action`` is one of 'create_table', 'drop_table',
    'create_index', 'drop_index'; ``payload`` carries the schema object or
    index spec; ``commit_ts`` is the DDL timestamp used for ROR fencing."""

    action: str = ""
    table: str = ""
    payload: typing.Any = None
    commit_ts: int = 0

    def size_bytes(self) -> int:
        return RECORD_HEADER_BYTES + 128


@dataclass(slots=True)
class RedoHeartbeat(RedoRecord):
    """Advances the replica's max applied commit timestamp during idle."""

    commit_ts: int = 0

    def size_bytes(self) -> int:
        return RECORD_HEADER_BYTES


#: Records that resolve a transaction's outcome on the replica.
OUTCOME_RECORDS = (RedoCommit, RedoAbort, RedoCommitPrepared, RedoAbortPrepared)
