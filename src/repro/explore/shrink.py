"""Delta-debugging shrinker: smallest failing fault schedule, then proof.

Given a failing trial, :func:`shrink` runs ddmin (Zeller & Hildebrandt)
over the fault list: try removing chunks of faults, keep any subset that
still reproduces the failure fingerprint, refine the chunk size, repeat
until 1-minimal — removing any single remaining fault makes the failure
disappear. A final pass simplifies the orthogonal dimensions (drop extra
workload fragments, reset the TM mode) when doing so keeps the failure.

"Reproduces" is by *fingerprint*: the sorted set of violation kinds of
the original failure must all still be present. Kinds, not messages —
messages carry timestamps/node names that legitimately move when earlier
faults are removed (chaos randomness is seeded per (schedule name, fault
index), so dropping fault 0 reshapes fault 1's draws; ddmin is safe under
that non-monotonicity because it re-runs every candidate).

The result is emitted as a *reproducer artifact* — a self-contained JSON
document with the minimized spec, the expected violations and the
canonical violation digest. ``python -m repro.explore replay <artifact>``
re-runs the spec and verifies the digest matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.explore.runner import TrialResult, run_trial
from repro.explore.spec import TrialSpec

ARTIFACT_FORMAT = "repro.explore/reproducer-v1"


def fingerprint(result: TrialResult) -> tuple[str, ...]:
    """The failure identity shrinking preserves: sorted violation kinds
    (checker names for checker violations, oracle kinds otherwise)."""
    kinds = {violation.get("kind") or violation.get("checker", "?")
             for violation in result.violations}
    return tuple(sorted(kinds))


@dataclass
class ShrinkResult:
    """The minimized reproducer plus the work it took."""

    spec: TrialSpec
    result: TrialResult
    original_faults: int
    trials_run: int = 0
    steps: list[str] = field(default_factory=list)

    @property
    def final_faults(self) -> int:
        return self.spec.fault_count


def shrink(spec: TrialSpec, failing: TrialResult,
           inject_bug: str | None = None,
           max_trials: int = 64) -> ShrinkResult:
    """ddmin the fault list of ``spec``; returns the 1-minimal spec."""
    target = fingerprint(failing)
    state = ShrinkResult(spec=spec, result=failing,
                         original_faults=spec.fault_count)

    def reproduces(candidate: TrialSpec) -> TrialResult | None:
        if state.trials_run >= max_trials:
            return None
        state.trials_run += 1
        result = run_trial(candidate, inject_bug=inject_bug)
        if not result.ok and set(target) <= set(fingerprint(result)):
            return result
        return None

    # --- ddmin over the fault list -----------------------------------
    faults = list(spec.schedule.specs)
    chunks = 2
    while len(faults) >= 2 and state.trials_run < max_trials:
        size = max(1, len(faults) // chunks)
        reduced = False
        for start in range(0, len(faults), size):
            candidate_faults = faults[:start] + faults[start + size:]
            if not candidate_faults:
                continue
            candidate = state.spec.with_schedule(candidate_faults)
            result = reproduces(candidate)
            if result is not None:
                faults = candidate_faults
                state.spec, state.result = candidate, result
                state.steps.append(
                    f"dropped faults [{start}:{start + size}) -> "
                    f"{len(faults)} left")
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if size <= 1:
                break  # 1-minimal
            chunks = min(len(faults), chunks * 2)

    # --- simplify orthogonal dimensions ------------------------------
    if len(state.spec.fragments) > 1:
        candidate = replace(state.spec, fragments=("bank",))
        result = reproduces(candidate)
        if result is not None:
            state.spec, state.result = candidate, result
            state.steps.append("dropped extra workload fragments")
    if state.spec.mode != "gclock":
        candidate = replace(state.spec, mode="gclock")
        result = reproduces(candidate)
        if result is not None:
            state.spec, state.result = candidate, result
            state.steps.append("reset TM mode to gclock")
    return state


# ----------------------------------------------------------------------
# Reproducer artifacts
# ----------------------------------------------------------------------
def make_artifact(shrunk: ShrinkResult,
                  inject_bug: str | None = None) -> dict:
    """Self-contained replay document (canonically serializable)."""
    return {
        "format": ARTIFACT_FORMAT,
        "spec": shrunk.spec.to_dict(),
        "inject_bug": inject_bug,
        "fingerprint": list(fingerprint(shrunk.result)),
        "violations": shrunk.result.violations,
        "violation_digest": shrunk.result.violation_digest,
        "history_digest": shrunk.result.history_digest,
        "shrink": {
            "original_faults": shrunk.original_faults,
            "final_faults": shrunk.final_faults,
            "trials_run": shrunk.trials_run,
            "steps": shrunk.steps,
        },
    }


def replay_artifact(artifact: dict) -> tuple[bool, TrialResult]:
    """Re-run an artifact's spec; True iff the violation digest matches."""
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"not a reproducer artifact: "
                         f"{artifact.get('format')!r}")
    spec = TrialSpec.from_dict(artifact["spec"])
    result = run_trial(spec, inject_bug=artifact.get("inject_bug"))
    return result.violation_digest == artifact["violation_digest"], result
