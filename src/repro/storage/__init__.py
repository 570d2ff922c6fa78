"""Per-shard MVCC storage.

Every data node, primary or replica, holds one
:class:`~repro.storage.engine.StorageEngine`: an MVCC heap with
timestamp-based visibility, a commit log mapping transaction ids to
outcomes, per-row write locks with FIFO wait queues, a table catalog
carrying DDL timestamps, and a redo (WAL) stream that is the sole
replication channel to replica nodes — exactly the shape the paper's ROR
machinery (§IV) depends on: replicas learn *everything* from replayed redo,
including ``PENDING_COMMIT`` holdbacks and 2PC outcomes. A primary writes
through the engine's write API; a replica's engine applies that redo; a
promotion turns one into the other in place.
"""

from repro.storage.catalog import Catalog, ColumnDef, DistributionSpec, TableSchema
from repro.storage.clog import CommitLog, TxnStatus
from repro.storage.engine import StorageEngine
from repro.storage.heap import HeapTable, RowVersion
from repro.storage.redo import (
    RedoAbort,
    RedoAbortPrepared,
    RedoCommit,
    RedoCommitPrepared,
    RedoDdl,
    RedoDelete,
    RedoHeartbeat,
    RedoInsert,
    RedoPendingCommit,
    RedoPrepare,
    RedoRecord,
    RedoUpdate,
)
from repro.storage.snapshot import Snapshot
from repro.storage.wal import WalBuffer

__all__ = [
    "StorageEngine",
    "Catalog",
    "TableSchema",
    "ColumnDef",
    "DistributionSpec",
    "CommitLog",
    "TxnStatus",
    "HeapTable",
    "RowVersion",
    "Snapshot",
    "WalBuffer",
    "RedoRecord",
    "RedoInsert",
    "RedoUpdate",
    "RedoDelete",
    "RedoCommit",
    "RedoAbort",
    "RedoPendingCommit",
    "RedoPrepare",
    "RedoCommitPrepared",
    "RedoAbortPrepared",
    "RedoDdl",
    "RedoHeartbeat",
]
