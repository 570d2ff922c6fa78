"""Per-row write locks with FIFO wait queues.

Writers lock a row before modifying it and hold the lock until commit or
abort, as in GaussDB. Waiting is a simulation event; a configurable timeout
aborts the waiter (this also breaks deadlocks, which the TPC-C access
patterns make rare but not impossible).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import WriteConflict
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.units import seconds


@dataclass
class _LockState:
    holder: int
    waiters: deque = field(default_factory=deque)  # of (txid, Event)


class _Wait(Event):
    """What :meth:`LockTable.acquire` returns: the grant event, plus —
    while the request waits in a queue — who waits for what and the
    :meth:`~repro.sim.core.Environment.arm` handle of the wait deadline
    (withdrawn by the grant, dropped when it fires). A wait granted before
    its deadline comes due never puts the deadline in the queue."""

    __slots__ = ("txid", "lock_key", "deadline")


class LockTable:
    """Row-granularity exclusive locks for one shard.

    A request that must wait arms a deadline (``Environment.arm``); the
    grant withdraws it, so a wait that ends before its timeout costs the
    kernel no queue entry for it."""

    def __init__(self, env: Environment, default_timeout_ns: int = seconds(1)):
        self.env = env
        self.default_timeout_ns = default_timeout_ns
        self._locks: dict[tuple, _LockState] = {}
        self._held: dict[int, set] = {}  # txid -> set of lock keys
        self.wait_count = 0
        #: Aborts from plain lock-wait timeouts (no cycle at expiry).
        self.timeout_count = 0
        #: Aborts that broke a deadlock: sanitizer cycle detection at wait
        #: time, or a timeout whose waiter was part of a wait-for cycle.
        self.deadlock_count = 0

    def acquire(self, txid: int, table: str, key: tuple,
                timeout_ns: int | None = None) -> Event:
        """Request the lock. The returned event fires with ``True`` once the
        lock is held, or fails with :class:`WriteConflict` on timeout.

        Re-entrant: a transaction acquiring a lock it already holds
        succeeds immediately. A free or re-entrant lock is granted through
        ``Environment.resolve``, so the returned event may already be
        processed: yield it at once, as the last action of the running
        entry, and never ``add_callback`` to it.
        """
        lock_key = (table, key)
        env = self.env
        done = _Wait(env)
        state = self._locks.get(lock_key)
        san = env.san
        if state is None:
            self._locks[lock_key] = _LockState(holder=txid)
            self._held.setdefault(txid, set()).add(lock_key)
            if san is not None:
                san.on_lock_granted(self, txid, lock_key)
            env.resolve(done, True, True)
            return done
        if state.holder == txid:
            env.resolve(done, True, True)
            return done
        if san is not None:
            cycle = san.on_lock_wait(self, txid, lock_key)
            if cycle is not None:
                # Waiting would close a wait-for cycle: abort this
                # requester now instead of letting the cycle stall until
                # a timeout breaks it blindly.
                self.deadlock_count += 1
                if env.series_on:
                    env.series.counter("lock.deadlocks", 1)
                done.fail(WriteConflict(f"deadlock detected: {cycle}"))
                return done
        self.wait_count += 1
        state.waiters.append((txid, done))
        done.txid = txid
        done.lock_key = lock_key
        done.deadline = env.arm(
            timeout_ns if timeout_ns is not None else self.default_timeout_ns,
            self._expire, done)
        return done

    def _expire(self, done: "_Wait") -> None:
        done.deadline = None  # the entry refers back: break the cycle
        if done.triggered:
            return
        lock_key, txid = done.lock_key, done.txid
        state = self._locks.get(lock_key)
        if state is not None:
            state.waiters = deque(
                (waiting_txid, event) for waiting_txid, event in state.waiters
                if event is not done)
        env = self.env
        san = env.san
        if san is not None:
            san.on_lock_wait_aborted(self, txid)
        # Classify the abort: a timeout whose waiter sat on a wait-for
        # cycle was really a deadlock the timeout happened to break.
        if self._part_of_cycle(txid, lock_key):
            self.deadlock_count += 1
            if env.series_on:
                env.series.counter("lock.deadlocks", 1)
        else:
            self.timeout_count += 1
            if env.series_on:
                env.series.counter("lock.timeouts", 1)
        done.fail(WriteConflict(
            f"lock wait timeout on {lock_key[0]}{lock_key[1]} (txn {txid})"))

    def _part_of_cycle(self, txid: int, lock_key: tuple) -> bool:
        """Was ``txid`` (about to abort its wait on ``lock_key``) part of a
        wait-for cycle *within this table*? Follows the holder-of /
        waits-on chain from the contended lock; O(live waiters), only run
        on the rare timeout path. Cross-shard cycles need the sanitizer's
        global graph — a local miss under-counts, never over-counts."""
        waits: dict[int, tuple] = {}
        for key, state in self._locks.items():
            for waiting_txid, event in state.waiters:
                if not event.triggered and waiting_txid not in waits:
                    waits[waiting_txid] = key
        seen = set()
        current_key = lock_key
        while True:
            state = self._locks.get(current_key)
            if state is None:
                return False
            holder = state.holder
            if holder == txid:
                return True
            if holder in seen:
                return False
            seen.add(holder)
            next_key = waits.get(holder)
            if next_key is None:
                return False
            current_key = next_key

    def release_all(self, txid: int) -> None:
        """Release every lock held by ``txid``, waking FIFO waiters."""
        # Sorted, not set order: set iteration follows string hashing, which
        # PYTHONHASHSEED randomizes per process — releasing in hash order
        # made waiter wake-ups (and whole histories) differ across runs.
        for lock_key in sorted(self._held.pop(txid, set()), key=repr):
            self._release_one(lock_key)

    def _release_one(self, lock_key: tuple) -> None:
        state = self._locks.get(lock_key)
        if state is None:
            return
        san = self.env.san
        while state.waiters:
            next_txid, event = state.waiters.popleft()
            if event.triggered:  # timed out already
                continue
            state.holder = next_txid
            self._held.setdefault(next_txid, set()).add(lock_key)
            if san is not None:
                san.on_lock_granted(self, next_txid, lock_key)
            self.env.withdraw(event.deadline)
            event.deadline = None
            event.succeed(True)
            return
        del self._locks[lock_key]
        if san is not None:
            san.on_lock_released(self, lock_key)

    def holder(self, table: str, key: tuple) -> int | None:
        state = self._locks.get((table, key))
        return state.holder if state else None

    def held_by(self, txid: int) -> set:
        return set(self._held.get(txid, set()))

    def locked_count(self) -> int:
        return len(self._locks)
