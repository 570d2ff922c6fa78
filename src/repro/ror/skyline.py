"""Cost-based replica selection via a Pareto skyline (§IV-B, Fig. 5).

Each CN refreshes, once per probe round (the one the RCP is taken from),
two costs per candidate node: *staleness* (how far behind its applied
data is) and *latency* (network RTT plus a load penalty reflecting how
promptly it answers). The skyline is the set of
Pareto-minimal candidates — nodes not dominated on both axes. Given a
query's staleness bound, the router picks the lowest-latency skyline node
whose data is fresh enough; crashed or overloaded nodes drop out of the
skyline automatically.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass


@dataclass(slots=True)
class NodeMetrics:
    """One candidate node's tracked costs."""

    name: str
    staleness_ns: int
    latency_ns: int
    max_commit_ts: int = 0
    load: float = 0.0
    up: bool = True
    is_primary: bool = False

    def dominates(self, other: "NodeMetrics") -> bool:
        """Strict Pareto dominance on (staleness, latency)."""
        no_worse = (self.staleness_ns <= other.staleness_ns
                    and self.latency_ns <= other.latency_ns)
        better = (self.staleness_ns < other.staleness_ns
                  or self.latency_ns < other.latency_ns)
        return no_worse and better


def skyline(candidates: typing.Iterable[NodeMetrics]) -> list[NodeMetrics]:
    """Pareto-minimal subset of live candidates, sorted by latency."""
    live = [candidate for candidate in candidates if candidate.up]
    frontier = [
        candidate for candidate in live
        if not any(other.dominates(candidate) for other in live)
    ]
    frontier.sort(key=lambda metrics: (metrics.latency_ns, metrics.staleness_ns))
    return frontier


def skyline_summary(candidates: typing.Iterable[NodeMetrics]) -> dict:
    """Telemetry view of one CN's routing state: how many live candidates,
    the skyline's size, and the freshness spread (min/max staleness over
    live replicas). Pure — CNs feed the result into ``env.series``."""
    live = [candidate for candidate in candidates if candidate.up]
    replicas = [candidate for candidate in live if not candidate.is_primary]
    return {
        "live": len(live),
        "skyline": len(skyline(live)),
        "freshest_staleness_ns": min(
            (replica.staleness_ns for replica in replicas), default=0),
        "stalest_staleness_ns": max(
            (replica.staleness_ns for replica in replicas), default=0),
    }


def choose_node(candidates: typing.Iterable[NodeMetrics],
                staleness_bound_ns: int | None = None,
                min_commit_ts: int | None = None,
                rng=None, latency_slack_ns: int = 200_000) -> NodeMetrics | None:
    """Pick a low-latency skyline node meeting the constraints.

    ``staleness_bound_ns`` is the query's freshness requirement (None means
    any staleness is acceptable). ``min_commit_ts`` additionally requires
    the node's applied frontier to cover a timestamp (the RCP) so the read
    is guaranteed consistent.

    Qualifying nodes within ``latency_slack_ns`` of the fastest are treated
    as equivalent and one is drawn at random (when ``rng`` is given): this
    spreads load across same-site candidates instead of stampeding the
    single cheapest node — the dynamic load balancing of §IV-B. Returns
    None if no node qualifies; the caller then falls back to the primary.
    """
    near = near_pool(candidates, staleness_bound_ns, min_commit_ts,
                     latency_slack_ns)
    if not near:
        return None
    if rng is None or len(near) == 1:
        return min(near, key=lambda metrics: metrics.latency_ns)
    return rng.choice(near)


def near_pool(candidates: typing.Iterable[NodeMetrics],
              staleness_bound_ns: int | None = None,
              min_commit_ts: int | None = None,
              latency_slack_ns: int = 200_000) -> list[NodeMetrics]:
    """The equivalence class :func:`choose_node` draws from: qualifying
    nodes within ``latency_slack_ns`` of the skyline's fastest qualifier
    (a dominated-but-near node is still a useful target — domination says
    "never strictly better", not "useless"). The fastest qualifier with
    the least staleness is never dominated, so the skyline's fastest
    latency is the least latency of any qualifier. Split out so routers can
    cache the pool between metric refreshes; its order is a pure function
    of the candidate order, which keeps a cached pool's ``rng.choice``
    draws identical to recomputing."""
    qualifying = []
    for metrics in candidates:
        if not metrics.up:
            continue
        if staleness_bound_ns is not None and metrics.staleness_ns > staleness_bound_ns:
            continue
        if (min_commit_ts is not None and not metrics.is_primary
                and metrics.max_commit_ts < min_commit_ts):
            continue
        qualifying.append(metrics)
    if not qualifying:
        return []
    fastest = min(metrics.latency_ns for metrics in qualifying)
    return [metrics for metrics in qualifying
            if metrics.latency_ns <= fastest + latency_slack_ns]
