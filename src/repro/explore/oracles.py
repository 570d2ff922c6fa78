"""The oracle layer: what makes a fuzzed trial a *failure*.

Beyond the offline history checkers (:mod:`repro.check.checkers`), every
trial is judged by structural oracles that need no workload semantics:

- **unexpected-exception** — the run raised anything other than the
  transaction-level outcomes the driver absorbs. A fuzzer that only
  checks invariants would misfile crashes as "no data".
- **stuck-simulation** — the cluster made zero progress over the whole
  measured window despite live terminals: a wedged commit path, a
  scheduler deadlock, or an unkillable in-doubt transaction.
- **sanitizer findings** — runtime deadlock cycles / mutation-after-send
  from :mod:`repro.san` (always installed for trials).
- **rcp-monotonicity** — a probe process samples every CN's RCP during
  the run; the RCP must never move backward from any client's view.
- **ror-promotion-gap** — no promotion may complete with the new
  primary's redo frontier below the RCP its CNs advertised (the failover
  manager measures the gap at every promotion; an unhealed gap is the
  pre-PR-8 bug re-observed).
- **ror-frontier-coverage** — after quiesce + settle, every *live*
  replica (and promoted primary) of every *live* shard must have applied
  commits up to the RCP its CNs advertised: clients were promised replica
  reads at that point are strongly consistent. The pre-PR-8 promotion
  bug is exactly a violation of this oracle.

Oracles only inspect state; none of them schedules events before the run
ends, so an oracle-checked trial has the same event history as a bare one
(the RCP probe runs *during* the sim but is a pure timer + reader, which
perturbs event ordering deterministically and identically per spec).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.sim.units import ms

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.builder import GlobalDB


@dataclass(frozen=True)
class TrialViolation:
    """One oracle (or checker) failure, with deterministic evidence."""

    kind: str
    message: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message}


class RcpProbe:
    """Samples every CN's RCP on a fixed cadence; records regressions."""

    def __init__(self, db: "GlobalDB", interval_ns: int = ms(20)):
        self.db = db
        self.interval_ns = interval_ns
        self.regressions: list[str] = []
        self._last: dict[str, int] = {}
        self._process = None

    def start(self, until_ns: int) -> "RcpProbe":
        self._process = self.db.env.process(self._run(until_ns),
                                            name="explore-rcp-probe")
        return self

    def _run(self, until_ns: int):
        env = self.db.env
        while env.now < until_ns:
            yield env.timeout(self.interval_ns)
            for cn in self.db.cns:
                rcp = cn.rcp_state.rcp
                last = self._last.get(cn.name, 0)
                if rcp < last:
                    self.regressions.append(
                        f"{cn.name}: RCP moved backward {last} -> {rcp} "
                        f"at t={env.now}ns")
                self._last[cn.name] = rcp

    def violations(self) -> list[TrialViolation]:
        return [TrialViolation("rcp-monotonicity", message)
                for message in self.regressions]


def check_frontier_coverage(db: "GlobalDB") -> list[TrialViolation]:
    """Post-settle: live shard members must cover the advertised RCP.

    Skips shards whose primary is down (nothing was promised for them
    anymore — CN routing excludes them) and replicas that are down (the
    skyline excludes them from ROR routing). With faults healed and the
    settle window elapsed, every remaining member has had time to catch
    up, so a frontier below the advertised RCP is a broken promise, not a
    transient.
    """
    advertised = max((cn.rcp_state.rcp for cn in db.cns), default=0)
    if advertised <= 0:
        return []
    violations = []
    for shard, primary in enumerate(db.primaries):
        if primary.failed:
            continue
        frontier = primary.engine.max_commit_ts
        if frontier < advertised:
            violations.append(TrialViolation(
                "ror-frontier-coverage",
                f"shard {shard} primary {primary.name} frontier {frontier} "
                f"is below the advertised RCP {advertised} after settle "
                f"(stale promotion or lost redo heartbeat)"))
        for replica in db.replicas.get(shard, ()):
            if replica.failed:
                continue
            applied = replica.engine.max_commit_ts
            if applied < advertised:
                violations.append(TrialViolation(
                    "ror-frontier-coverage",
                    f"shard {shard} replica {replica.name} applied frontier "
                    f"{applied} is below the advertised RCP {advertised} "
                    f"after settle"))
    return violations


def check_promotion_coverage(db: "GlobalDB") -> list[TrialViolation]:
    """No promotion may leave the shard's frontier below the advertised
    RCP. The failover manager measures the gap at every promotion (it is
    the pre-heal measurement, taken whether or not the guard then heals
    it); an unhealed gap means clients were promised strongly-consistent
    replica reads the shard can no longer serve — the pre-PR-8 bug.
    """
    if db.failover is None:
        return []
    violations = []
    for event in db.failover.events:
        if event.rcp_gap_unhealed > 0:
            violations.append(TrialViolation(
                "ror-promotion-gap",
                f"shard {event.shard}: promoted {event.new_primary} with a "
                f"redo frontier {event.rcp_gap_unhealed}ns below the "
                f"advertised RCP at t={event.at_ns}ns — strongly-consistent "
                f"replica reads at the RCP were not serviceable"))
    return violations


def check_progress(committed: int, aborted: int,
                   terminals: int) -> list[TrialViolation]:
    if terminals > 0 and committed + aborted == 0:
        return [TrialViolation(
            "stuck-simulation",
            f"{terminals} terminals completed zero transactions (commit "
            f"or abort) over the whole run — the cluster is wedged")]
    return []


def san_violations(db: "GlobalDB") -> list[TrialViolation]:
    if db.env.san is None:
        return []
    return [TrialViolation(f"san:{finding.kind}", finding.message)
            for finding in db.env.san.report.findings]
