"""The Global Transaction Manager server.

In GTM mode the server is the single source of timestamps: begin requests
read the counter, commit requests increment it (Eq. 2). In DUAL mode the
server bridges regimes: each DUAL request reports the caller's current
GClock timestamp and error bound, the counter is raised to
``max(TS_GTM, TS_GClock) + 1`` (Eq. 3), and the server tracks the maximum
error bound observed — the quantity that sizes the paper's ``2 x max error
bound`` waits. In GCLOCK mode the server refuses GTM-mode commits (such
transactions abort, per §III-A) but keeps servicing in-flight DUAL commits
so migrations drain cleanly.

The server is a network endpoint; all interaction is via RPC, so every
GTM-mode transaction genuinely pays the round trip that Fig. 6b measures.
"""

from __future__ import annotations

from repro.errors import ModeTransitionError
from repro.sim.core import Environment
from repro.sim.network import Message, Network, Request
from repro.sim.units import us
from repro.txn.modes import TxnMode


class GTMServer:
    """Centralized transaction manager, addressable as ``name`` on the net."""

    def __init__(self, env: Environment, network: Network, name: str,
                 region: str, service_time_ns: int = us(2)):
        self.env = env
        self.network = network
        self.name = name
        self.region = region
        self.service_time_ns = service_time_ns
        self.mode = TxnMode.GTM
        self.counter = 0  # TS_GTM: the latest issued timestamp
        #: Largest error bound reported by any DUAL-mode participant since
        #: the server last entered DUAL mode (sizes the 2x dwell wait).
        self.max_err_seen = 0
        #: Largest GClock timestamp reported (GClock -> GTM transitions).
        self.max_gclock_seen = 0
        self.begin_requests = 0
        self.commit_requests = 0
        self.rejected_commits = 0
        #: Group-commit window state: requests arriving while a service
        #: window is open are answered together when it closes, so a burst
        #: of N timestamp requests costs one kernel event, not N processes.
        self._window: list = []
        self._window_armed = False
        self.windows_served = 0
        self.windowed_requests = 0
        # Precomputed dispatch: request kind -> bound handler (avoids a
        # per-request getattr on the hot path; see simlint SIM112).
        self._handlers = {
            attr[len("_handle_"):]: getattr(self, attr)
            for attr in dir(self) if attr.startswith("_handle_")
        }
        network.add_endpoint(name, region, handler=self._on_message)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        request = message.payload
        if not isinstance(request, Request):
            return
        kind = request.body[0]
        env = self.env
        if env.metrics_on:
            env.metrics.counter("gtm.requests", kind=kind).inc()
        if env.series_on:
            series = env.series
            series.counter("gtm.requests", 1, kind=kind)
            series.gauge("gtm.counter", self.counter, node=self.name)
        # Group commit: the first request opens a service window one
        # ``service_time_ns`` wide; everything arriving before it closes is
        # served in arrival order when it does. The batch costs a single
        # deferred callback instead of one process (and its timer, resume
        # and join events) per request.
        if self.service_time_ns:
            self._window.append((kind, request, env.now))
            if not self._window_armed:
                self._window_armed = True
                env.defer(self.service_time_ns, self._serve_window, None)
            return
        handler = self._handlers.get(kind)
        if handler is None:
            request.fail(ModeTransitionError(f"GTM: unknown request {kind!r}"))
            return
        handler(request)
        if env.trace_on:
            env.tracer.instant("gtm", kind, track=self.name)

    def _serve_window(self, _arg) -> None:
        self._window_armed = False
        batch = self._window
        self._window = []
        handlers = self._handlers
        env = self.env
        traced = env.trace_on
        now = env.now
        self.windows_served += 1
        self.windowed_requests += len(batch)
        for kind, request, arrived in batch:
            handler = handlers.get(kind)
            if handler is None:
                request.fail(
                    ModeTransitionError(f"GTM: unknown request {kind!r}"))
                continue
            handler(request)
            if traced:
                env.tracer.complete("gtm", kind, arrived, now,
                                    track=self.name)

    # ------------------------------------------------------------------
    # Timestamp requests
    # ------------------------------------------------------------------
    def _handle_begin(self, request: Request) -> None:
        """Begin: the snapshot is the latest issued timestamp."""
        self.begin_requests += 1
        request.reply(self.counter)

    def _handle_begin_dual(self, request: Request) -> None:
        """DUAL begin: raise the counter with the caller's GClock view so the
        snapshot covers everything either regime has committed."""
        _kind, gclock_ts, gclock_err = request.body
        self.begin_requests += 1
        self._observe_gclock(gclock_ts, gclock_err)
        if gclock_ts > self.counter:
            self.counter = gclock_ts
        request.reply(self.counter)

    def _handle_commit_gtm(self, request: Request) -> None:
        """Commit for a transaction that began in GTM mode."""
        self.commit_requests += 1
        if self.mode is TxnMode.GCLOCK:
            # §III-A: old GTM transactions committing after the cluster has
            # transitioned to GClock mode must abort.
            self.rejected_commits += 1
            request.reply(("abort", "GTM transaction after GClock cutover"))
            return
        self.counter += 1
        if self.mode is TxnMode.DUAL:
            # Listing 1's fix: GTM commits during DUAL must wait out twice
            # the largest error bound seen during the transition.
            request.reply(("ok", self.counter, 2 * self.max_err_seen))
        else:
            request.reply(("ok", self.counter, 0))

    def _handle_commit_dual(self, request: Request) -> None:
        """Commit for a DUAL-mode transaction (Eq. 3)."""
        _kind, gclock_ts, gclock_err = request.body
        self.commit_requests += 1
        self._observe_gclock(gclock_ts, gclock_err)
        self.counter = max(self.counter, gclock_ts) + 1
        request.reply(("ok", self.counter, 0))

    def _handle_report_gclock(self, request: Request) -> None:
        """A node reports a GClock timestamp it issued (used on the GClock
        to GTM path so the counter ends up above every issued timestamp)."""
        _kind, gclock_ts, gclock_err = request.body
        self._observe_gclock(gclock_ts, gclock_err)
        request.reply(("ok",))

    def _observe_gclock(self, gclock_ts: int, gclock_err: int) -> None:
        if gclock_ts > self.max_gclock_seen:
            self.max_gclock_seen = gclock_ts
        if gclock_err > self.max_err_seen:
            self.max_err_seen = gclock_err

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------
    def _handle_set_mode(self, request: Request) -> None:
        _kind, mode = request.body
        try:
            self.set_mode(mode)
        except ModeTransitionError as exc:
            request.fail(exc)
            return
        request.reply(("ok", self.max_err_seen))

    def set_mode(self, mode: TxnMode) -> None:
        """Switch the server's mode (validating the legal transitions)."""
        legal = {
            (TxnMode.GTM, TxnMode.DUAL),
            (TxnMode.DUAL, TxnMode.GCLOCK),
            (TxnMode.GCLOCK, TxnMode.DUAL),
            (TxnMode.DUAL, TxnMode.GTM),
        }
        if mode is self.mode:
            return
        if (self.mode, mode) not in legal:
            raise ModeTransitionError(
                f"illegal GTM server transition {self.mode} -> {mode}")
        if mode is TxnMode.DUAL:
            # Fresh transition window: start tracking error bounds anew.
            self.max_err_seen = 0
        if mode is TxnMode.GTM:
            # Counter must exceed every GClock timestamp issued so far
            # (Fig. 3), so no transaction needs to abort.
            self.counter = max(self.counter, self.max_gclock_seen) + 1
        self.mode = mode

    def _handle_get_state(self, request: Request) -> None:
        request.reply({
            "mode": self.mode,
            "counter": self.counter,
            "max_err_seen": self.max_err_seen,
            "max_gclock_seen": self.max_gclock_seen,
        })
