"""Per-node timestamp provider.

Every computing node and data node owns a :class:`TimestampProvider` that
knows the node's current transaction-management mode and implements the
begin/commit timestamp protocols for all three modes. Transactions are
pinned to the mode under which they began; the provider resolves the
*effective* commit protocol from (transaction mode, node mode):

- a GTM transaction always commits through the GTM server — during a DUAL
  window the server makes it wait out ``2 x max error bound`` (Listing 1's
  fix), and after a GClock cutover the server rejects it (the transaction
  aborts, as §III-A specifies);
- a DUAL transaction always commits through the GTM server with Eq. 3;
- a GClock transaction commits locally with commit-wait — unless the node
  has left GClock mode (a GClock -> GTM transition is in progress), in
  which case it is upgraded to the DUAL protocol so it never aborts,
  matching Fig. 3's "no old transactions will need to abort".
"""

from __future__ import annotations

from repro.clocks.gclock import GClockSource
from repro.errors import (ModeTransitionError, NetworkError,
                          TransactionAborted)
from repro.obs.metrics import Counter, Histogram
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.units import ms
from repro.txn.modes import TxnMode

#: Legal mode transitions for a node (same shape as the GTM server's).
_LEGAL_TRANSITIONS = {
    (TxnMode.GTM, TxnMode.DUAL),
    (TxnMode.DUAL, TxnMode.GCLOCK),
    (TxnMode.GCLOCK, TxnMode.DUAL),
    (TxnMode.DUAL, TxnMode.GTM),
}


class TimestampStats:
    """Counters for reporting (GTM round trips vs. local stamps, waits).

    Backed by :mod:`repro.obs` instruments. When the node's environment has
    a live :class:`~repro.obs.metrics.MetricsRegistry`, the instruments are
    registered there (``ts.*`` with a ``node`` label) and show up in
    registry snapshots; otherwise standalone instruments are used so the
    stats keep counting with observability off. The original attribute API
    (``gtm_round_trips`` etc.) is preserved as read-only properties.
    """

    __slots__ = ("_round_trips", "_local", "_waits", "_cutover_aborts")

    def __init__(self, registry=None, node: str | None = None):
        if registry is not None and registry.enabled and node is not None:
            self._round_trips = registry.counter("ts.gtm_round_trips", node=node)
            self._local = registry.counter("ts.local_stamps", node=node)
            self._waits = registry.histogram("ts.commit_wait_ns", node=node)
            self._cutover_aborts = registry.counter("ts.aborts_on_cutover",
                                                    node=node)
        else:
            self._round_trips = Counter()
            self._local = Counter()
            self._waits = Histogram()
            self._cutover_aborts = Counter()

    def note_round_trip(self) -> None:
        self._round_trips.inc()

    def note_local_stamp(self) -> None:
        self._local.inc()

    def note_wait(self, wait_ns: int) -> None:
        self._waits.record(wait_ns)

    def note_cutover_abort(self) -> None:
        self._cutover_aborts.inc()

    @property
    def gtm_round_trips(self) -> int:
        return self._round_trips.value

    @property
    def local_stamps(self) -> int:
        return self._local.value

    @property
    def commit_wait_ns_total(self) -> int:
        return self._waits.sum

    @property
    def commit_waits(self) -> int:
        return self._waits.count

    @property
    def aborts_on_cutover(self) -> int:
        return self._cutover_aborts.value

    def mean_commit_wait_ns(self) -> float:
        if not self.commit_waits:
            return 0.0
        return self.commit_wait_ns_total / self.commit_waits


class TimestampProvider:
    """Mode-aware begin/commit timestamp protocols for one node."""

    def __init__(self, env: Environment, network: Network, node_name: str,
                 gclock: GClockSource, gtm_name: str,
                 mode: TxnMode = TxnMode.GTM):
        self.env = env
        self.network = network
        self.node_name = node_name
        self.gclock = gclock
        self.gtm_name = gtm_name
        self.mode = mode
        self.stats = TimestampStats(env.metrics, node_name)

    # ------------------------------------------------------------------
    # Mode management
    # ------------------------------------------------------------------
    def set_mode(self, mode: TxnMode):
        """Switch the node's mode (generator: DUAL entry reports the node's
        GClock view to the GTM server so Eq. 3 and Fig. 3 bookkeeping hold).
        """
        if mode is self.mode:
            return
        if (self.mode, mode) not in _LEGAL_TRANSITIONS:
            raise ModeTransitionError(
                f"illegal node transition {self.mode} -> {mode} on {self.node_name}")
        if mode is TxnMode.DUAL:
            stamp = self.gclock.timestamp()
            yield self.network.request(
                self.node_name, self.gtm_name,
                ("report_gclock", stamp.ts, stamp.err))
        self.mode = mode

    # ------------------------------------------------------------------
    def _gtm_request(self, body: tuple):
        """Generator: one GTM round trip on the transaction path.

        A GTM that cannot be reached (crashed, partitioned) aborts the
        transaction — clients see a retryable abort, never a raw network
        error escaping the session layer.
        """
        try:
            reply = yield self.network.request(
                self.node_name, self.gtm_name, body)
        except NetworkError as exc:
            # Back off before surfacing the abort: a down endpoint fails
            # the request at the same sim instant, and a closed-loop
            # retrier must not spin without advancing time.
            yield self.env.timeout(ms(1))
            raise TransactionAborted(f"gtm unreachable: {exc}") from None
        return reply

    # ------------------------------------------------------------------
    # Begin
    # ------------------------------------------------------------------
    def begin(self):
        """Generator: returns ``(read_ts, txn_mode)`` for a new transaction.

        GClock mode performs the invocation wait of §III; GTM and DUAL
        modes pay a round trip to the GTM server.
        """
        mode = self.mode
        if mode is TxnMode.GTM:
            started = self.env.now
            read_ts = yield from self._gtm_request(("begin",))
            self.stats.note_round_trip()
            self._trace_rpc("begin_rpc", started)
            return read_ts, mode
        if mode is TxnMode.DUAL:
            stamp = self.gclock.timestamp()
            started = self.env.now
            read_ts = yield from self._gtm_request(
                ("begin_dual", stamp.ts, stamp.err))
            self.stats.note_round_trip()
            self._trace_rpc("begin_rpc", started)
            return read_ts, mode
        # GClock: take the timestamp and perform the invocation wait.
        stamp = self.gclock.timestamp()
        self.stats.note_local_stamp()
        started = self.env.now
        yield from self.gclock.wait_until_after(stamp.ts)
        self._note_wait(started, name="invocation_wait")
        return stamp.ts, mode

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit_ts(self, txn_mode: TxnMode, txid=None):
        """Generator: returns the commit timestamp for a transaction that
        began under ``txn_mode``, applying the mode-appropriate wait.

        ``txid`` (when the caller has one) is attached to the emitted
        commit-wait spans so run reports can attribute the wait to the
        transaction. Raises :class:`TransactionAborted` for GTM
        transactions stranded by a GClock cutover.
        """
        effective = self._effective_commit_mode(txn_mode)
        if effective is TxnMode.GTM:
            started = self.env.now
            reply = yield from self._gtm_request(("commit_gtm",))
            self.stats.note_round_trip()
            self._trace_rpc("commit_rpc", started, txid=txid)
            if reply[0] == "abort":
                self.stats.note_cutover_abort()
                raise TransactionAborted(reply[1])
            _ok, ts, wait_ns = reply
            if wait_ns:
                started = self.env.now
                yield self.env.timeout(wait_ns)
                self._note_wait(started, txid=txid)
            return ts
        if effective is TxnMode.DUAL:
            stamp = self.gclock.timestamp()
            started = self.env.now
            reply = yield from self._gtm_request(
                ("commit_dual", stamp.ts, stamp.err))
            self.stats.note_round_trip()
            self._trace_rpc("commit_rpc", started, txid=txid)
            _ok, ts, _wait = reply
            # Commit-wait so later GClock transactions anywhere get larger
            # timestamps even though ts was issued centrally.
            started = self.env.now
            yield from self.gclock.wait_until_after(ts)
            self._note_wait(started, txid=txid)
            return ts
        # Pure GClock commit: local stamp + commit wait. Zero GTM traffic.
        stamp = self.gclock.timestamp()
        self.stats.note_local_stamp()
        started = self.env.now
        yield from self.gclock.wait_until_after(stamp.ts)
        self._note_wait(started, txid=txid)
        return stamp.ts

    def _effective_commit_mode(self, txn_mode: TxnMode) -> TxnMode:
        if txn_mode is TxnMode.GCLOCK and self.mode is not TxnMode.GCLOCK:
            # The node left GClock mode while this transaction ran
            # (GClock -> GTM migration). Upgrade to DUAL: Eq. 3 timestamps
            # are valid against both regimes, so nothing aborts (Fig. 3).
            return TxnMode.DUAL
        return txn_mode

    def _note_wait(self, started: int, txid=None,
                   name: str = "commit_wait") -> None:
        now = self.env.now
        self.stats.note_wait(now - started)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete("ts", name, started, now, track=self.node_name,
                            txid=txid)

    def _trace_rpc(self, name: str, started: int, txid=None) -> None:
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.complete("ts", name, started, self.env.now,
                            track=self.node_name, txid=txid)
