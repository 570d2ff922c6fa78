"""simsan's runtime half: a deterministic hazard sanitizer.

The sanitizer is an opt-in observer attached to an
:class:`~repro.sim.core.Environment` as ``env.san``. Two hazard classes:

**Deadlocks** — :class:`~repro.storage.locks.LockTable` calls in on every
grant/wait/release, maintaining a cluster-wide wait-for graph
(:mod:`repro.san.waitfor`). A wait that would close a cycle aborts the
requester *immediately* with a :class:`WriteConflict` naming every cycle
member (txids and lock keys), instead of leaving the cycle to stall until
a lock timeout breaks it blindly.

**Mutation after send** — :mod:`repro.sim.network` calls in at send and
delivery; payloads are structurally fingerprinted
(:mod:`repro.san.fingerprint`) at send time and re-verified just before
the handler runs. A mismatch means some component mutated an object it
had already shipped — exactly the hazard that silently corrupts what a
geo-replica replays.

Determinism contract: the sanitizer never schedules events and never
reads wall-clock or ``id()`` into a finding, so a sanitized run is as
bit-reproducible as an unsanitized one (findings are emitted into the
``repro.obs`` trace and checked by ``lint --determinism``). The only
execution change is intentional: deadlock victims abort at wait time
rather than at timeout.

Enable with ``REPRO_SAN=1`` (any workload driven through
``repro.workloads.driver.run_workload``) or programmatically::

    from repro.san import Sanitizer
    san = Sanitizer(db.env).install()
    ...
    print(san.report.render())
"""

from __future__ import annotations

import os
import typing

from repro.san.fingerprint import fingerprint
from repro.san.report import DEADLOCK, MUTATION, SanFinding, SanReport, describe_cycle
from repro.san.waitfor import WaitForGraph

if typing.TYPE_CHECKING:
    from repro.sim.core import Environment
    from repro.sim.network import Message

__all__ = ["Sanitizer", "maybe_install", "SanReport", "SanFinding",
           "WaitForGraph", "fingerprint", "DEADLOCK", "MUTATION"]

ENV_VAR = "REPRO_SAN"


class Sanitizer:
    """Per-environment hazard detector; see the module docstring."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.report = SanReport()
        self.waitfor = WaitForGraph()
        # LockTable -> small deterministic scope id, assigned in first-use
        # order (construction/first-acquire order is itself deterministic).
        self._scope_ids: dict[int, int] = {}
        self._scope_names: dict[int, str] = {}
        self._scope_refs: list = []  # keeps ids alive (no id() recycling)
        # id(message) -> send-time fingerprint. Keying by id() is safe
        # (and never reported): the kernel queue holds the message object
        # until delivery, so the id cannot be recycled while in flight.
        self._inflight: dict[int, str] = {}
        self.messages_checked = 0

    def install(self) -> "Sanitizer":
        self.env.san = self
        return self

    # ------------------------------------------------------------------
    # Lock hooks (called by LockTable)
    # ------------------------------------------------------------------
    def _scope(self, table) -> int:
        scope = self._scope_ids.get(id(table))
        if scope is None:
            scope = len(self._scope_ids)
            self._scope_ids[id(table)] = scope
            self._scope_names[scope] = f"locks#{scope}"
            self._scope_refs.append(table)
        return scope

    def on_lock_granted(self, table, txid: int, lock_key: tuple) -> None:
        self.waitfor.on_granted(self._scope(table), lock_key, txid)

    def on_lock_wait(self, table, txid: int,
                     lock_key: tuple) -> str | None:
        """Returns a deadlock description if waiting would close a cycle
        (the edge is then *not* recorded — the caller aborts the victim);
        records the wait edge and returns ``None`` otherwise."""
        cycle = self.waitfor.on_wait(self._scope(table), lock_key, txid)
        if cycle is None:
            return None
        message = describe_cycle(cycle, self._scope_names)
        self.report.add(
            self.env, DEADLOCK, message,
            victim=str(txid),
            members=",".join(str(member) for member, _key in cycle),
            size=str(len(cycle)))
        return message

    def on_lock_wait_aborted(self, table, txid: int) -> None:
        self.waitfor.on_wait_aborted(txid)

    def on_lock_released(self, table, lock_key: tuple) -> None:
        self.waitfor.on_released(self._scope(table), lock_key)

    # ------------------------------------------------------------------
    # Network hooks (called by Network.send / Network._deliver)
    # ------------------------------------------------------------------
    def on_message_send(self, message: "Message") -> None:
        self._inflight[id(message)] = fingerprint(message.payload)

    def on_message_deliver(self, message: "Message") -> None:
        sent = self._inflight.pop(id(message), None)
        if sent is None:  # sent before the sanitizer was installed
            return
        self.messages_checked += 1
        delivered = fingerprint(message.payload)
        if delivered == sent:
            return
        from repro.sim.network import _payload_kind
        kind = _payload_kind(message.payload)
        self.report.add(
            self.env, MUTATION,
            f"payload '{kind}' from {message.src} to {message.dst} mutated "
            f"in flight (sent t={message.send_time}ns, delivered "
            f"t={message.deliver_time}ns): the receiver sees state the "
            f"sender changed after send()",
            src=message.src, dst=message.dst, payload=kind,
            sent_fp=sent[:12], delivered_fp=delivered[:12])


def maybe_install(env: "Environment") -> Sanitizer | None:
    """Install a sanitizer iff ``REPRO_SAN`` is set to a truthy value.

    Idempotent: an already-installed sanitizer (programmatic or from an
    earlier call) is returned as-is. With the variable unset this is one
    ``os.environ`` lookup — the hot paths stay untouched because
    ``env.san`` remains ``None``.
    """
    if env.san is not None:
        return env.san
    if os.environ.get(ENV_VAR, "") in ("", "0"):
        return None
    return Sanitizer(env).install()
