"""Online migration between GTM and GClock modes (§III-A, Figs. 2-3).

The coordinator drives the cluster through DUAL mode with zero downtime:
transactions keep starting and committing at every step.

GTM -> GClock (Fig. 2):

1. switch the GTM server to DUAL;
2. switch every node to DUAL (each reports its GClock view, so the server
   learns the maximum error bound and raises its counter per Eq. 3);
3. dwell in DUAL for ``2 x max error bound`` observed during the
   transition, so every GClock timestamp issued after the cutover exceeds
   every DUAL timestamp issued before it;
4. switch the GTM server, then every node, to GClock mode. In-flight DUAL
   transactions still commit through the server; stale GTM transactions
   that reach commit after the cutover abort.

GClock -> GTM (Fig. 3) is the same choreography minus the dwell: the server
re-enters GTM mode with its counter above the largest GClock timestamp it
has observed, so nothing aborts.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.sim.core import Environment
from repro.sim.network import Network
from repro.txn.modes import TxnMode


@dataclass
class MigrationReport:
    """Timeline of one migration run (for tests, examples, benchmarks)."""

    direction: str
    started_at: int = 0
    finished_at: int = 0
    dwell_ns: int = 0
    steps: list = field(default_factory=list)

    def record(self, now: int, step: str) -> None:
        self.steps.append((now, step))

    @property
    def duration_ns(self) -> int:
        return self.finished_at - self.started_at


class MigrationCoordinator:
    """Admin entity that performs mode transitions over the network.

    ``participants`` are endpoint names that accept a ``("set_mode", mode)``
    RPC (computing nodes and data nodes — anything holding a
    :class:`~repro.txn.provider.TimestampProvider`).
    """

    def __init__(self, env: Environment, network: Network, name: str,
                 gtm_name: str, participants: typing.Sequence[str]):
        self.env = env
        self.network = network
        self.name = name
        self.gtm_name = gtm_name
        self.participants = list(participants)
        if name not in network._endpoints:
            network.add_endpoint(name, region="admin")
        self.reports: list[MigrationReport] = []

    # ------------------------------------------------------------------
    def to_gclock(self):
        """Generator: migrate the whole cluster GTM -> GClock."""
        report = MigrationReport(direction="gtm->gclock", started_at=self.env.now)
        self.reports.append(report)
        span = self.env.tracer.start("migration", "gtm->gclock", track=self.name)
        yield from self._set_gtm_mode(TxnMode.DUAL, report)
        yield from self._set_participants_mode(TxnMode.DUAL, report)
        # Dwell: 2x the max error bound observed during the transition.
        state = yield self.network.request(self.name, self.gtm_name, ("get_state",))
        dwell = 2 * state["max_err_seen"]
        report.dwell_ns = dwell
        dwell_started = self.env.now
        self._mark(report, f"dwell {dwell}ns")
        if dwell:
            yield self.env.timeout(dwell)
        self._note_phase("dwell", dwell_started)
        yield from self._set_gtm_mode(TxnMode.GCLOCK, report)
        yield from self._set_participants_mode(TxnMode.GCLOCK, report)
        report.finished_at = self.env.now
        span.finish(dwell_ns=dwell)
        return report

    def to_gtm(self):
        """Generator: migrate the whole cluster GClock -> GTM."""
        report = MigrationReport(direction="gclock->gtm", started_at=self.env.now)
        self.reports.append(report)
        span = self.env.tracer.start("migration", "gclock->gtm", track=self.name)
        yield from self._set_gtm_mode(TxnMode.DUAL, report)
        yield from self._set_participants_mode(TxnMode.DUAL, report)
        # No dwell needed (Fig. 3): the server's counter jumps above the
        # largest observed GClock timestamp when it re-enters GTM mode.
        yield from self._set_gtm_mode(TxnMode.GTM, report)
        yield from self._set_participants_mode(TxnMode.GTM, report)
        report.finished_at = self.env.now
        span.finish()
        return report

    # ------------------------------------------------------------------
    def _mark(self, report: MigrationReport, step: str) -> None:
        report.record(self.env.now, step)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("migration", step, track=self.name)

    def _note_phase(self, phase: str, started: int) -> None:
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.histogram("migration.phase_ns",
                              phase=phase).record(self.env.now - started)

    def _set_gtm_mode(self, mode: TxnMode, report: MigrationReport):
        started = self.env.now
        yield self.network.request(self.name, self.gtm_name, ("set_mode", mode))
        self._mark(report, f"gtm-server -> {mode}")
        self._note_phase(f"server->{mode.name}", started)

    def _set_participants_mode(self, mode: TxnMode, report: MigrationReport):
        started = self.env.now
        pending = [
            self.network.request(self.name, participant, ("set_mode", mode))
            for participant in self.participants
        ]
        if pending:
            yield self.env.all_of(pending)
        self._mark(report, f"participants -> {mode}")
        self._note_phase(f"participants->{mode.name}", started)
