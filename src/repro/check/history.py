"""Jepsen-style operation histories.

Every client operation is recorded twice, Jepsen-fashion: an **invoke**
when the client starts it and a completion — **ok** (with the commit
timestamp or read snapshot), **fail** (definitely did not happen), or
**info** (outcome unknown: the commit may or may not have taken effect —
e.g. a commit acknowledgement lost to a partition). Both edges carry the
simulation's real time, which is what lets the external-consistency
checker compare commit-timestamp order against real-time order.

The recorder attaches to an :class:`~repro.sim.core.Environment` as
``env.history`` (``None`` by default — the same zero-cost observer pattern
as ``env.san``): it is purely passive, never schedules events, and
therefore cannot perturb a run. Enable it for any driven workload with
``REPRO_HISTORY=1`` or programmatically::

    recorder = HistoryRecorder(db.env).install()
    ...run...
    report = run_all_checks(recorder.history(), expected_total=...)

Ops that never complete (a reader parked on an in-doubt transaction when
the run ends) stay in **invoke** state; checkers treat them like **info**.
"""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

ENV_VAR = "REPRO_HISTORY"

INVOKE = "invoke"
OK = "ok"
FAIL = "fail"
INFO = "info"


@dataclass
class Op:
    """One client operation (invoke edge + completion edge)."""

    index: int
    client: str
    op: str                  # "transfer" | "read" | "txn" | ...
    status: str              # invoke -> ok | fail | info
    invoke_ns: int
    complete_ns: int = -1
    commit_ts: int = -1      # writes: assigned commit timestamp
    read_ts: int = -1        # reads: pinned snapshot timestamp
    value: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index, "client": self.client, "op": self.op,
            "status": self.status, "invoke_ns": self.invoke_ns,
            "complete_ns": self.complete_ns, "commit_ts": self.commit_ts,
            "read_ts": self.read_ts, "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Op":
        return cls(**data)


class History:
    """An immutable-ish list of ops with filters and a stable digest."""

    def __init__(self, ops: list[Op]):
        self.ops = ops

    def __iter__(self):
        return iter(self.ops)

    # -- filters -------------------------------------------------------

    def committed(self, op_type: str | None = None) -> list[Op]:
        return [op for op in self.ops
                if op.status == OK and op.commit_ts >= 0
                and (op_type is None or op.op == op_type)]

    def unknown(self, op_type: str | None = None) -> list[Op]:
        """Ops whose effects may or may not exist (info + never-completed)."""
        return [op for op in self.ops
                if op.status in (INFO, INVOKE)
                and (op_type is None or op.op == op_type)]

    def ok_reads(self) -> list[Op]:
        return [op for op in self.ops
                if op.op == "read" and op.status == OK]

    # -- serialisation -------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [op.to_dict() for op in self.ops]

    def digest(self) -> str:
        payload = json.dumps(self.to_dicts(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for op in self.ops:
                handle.write(json.dumps(op.to_dict(), sort_keys=True) + "\n")
        return len(self.ops)

    @classmethod
    def read_jsonl(cls, path: str) -> "History":
        ops = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    ops.append(Op.from_dict(json.loads(line)))
        return cls(ops)


class HistoryRecorder:
    """Collects ops against one environment's simulated clock."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.ops: list[Op] = []

    def install(self) -> "HistoryRecorder":
        self.env.history = self
        return self

    # ------------------------------------------------------------------
    def invoke(self, client: str, op_type: str,
               value: dict | None = None) -> Op:
        op = Op(index=len(self.ops), client=client, op=op_type,
                status=INVOKE, invoke_ns=self.env.now,
                value=dict(value) if value else {})
        self.ops.append(op)
        return op

    def ok(self, op: Op, commit_ts: int = -1, read_ts: int = -1,
           **value_updates) -> None:
        op.status = OK
        op.complete_ns = self.env.now
        if commit_ts >= 0:
            op.commit_ts = commit_ts
        if read_ts >= 0:
            op.read_ts = read_ts
        if value_updates:
            op.value.update(value_updates)

    def fail(self, op: Op, reason: str = "") -> None:
        op.status = FAIL
        op.complete_ns = self.env.now
        if reason:
            op.value["reason"] = reason

    def info(self, op: Op, reason: str = "") -> None:
        """Outcome unknown — the op's effects may or may not exist."""
        op.status = INFO
        op.complete_ns = self.env.now
        if reason:
            op.value["reason"] = reason

    def history(self) -> History:
        return History(list(self.ops))


def maybe_install(env: "Environment") -> HistoryRecorder | None:
    """Install a recorder iff ``REPRO_HISTORY`` is set truthy (idempotent,
    mirroring :func:`repro.san.maybe_install`)."""
    if env.history is not None:
        return env.history
    if os.environ.get(ENV_VAR, "") in ("", "0"):
        return None
    return HistoryRecorder(env).install()
