"""Reads on asynchronous replicas with guaranteed consistency (§IV).

Four pieces:

- :mod:`repro.ror.rcp` — the Replica Consistency Point: the largest commit
  timestamp available on *all* polled replicas, computed by an elected
  collector CN and distributed monotonically.
- :mod:`repro.ror.staleness` — per-mode staleness estimation (GClock mode
  compares timestamps to the clock; GTM mode extrapolates from the
  timestamp issue rate).
- :mod:`repro.ror.skyline` — cost-based node selection: a Pareto skyline
  over (staleness, latency/load) from which the router picks the fastest
  node satisfying a query's freshness bound, excluding failed nodes.
- :mod:`repro.ror.control` — one CN's control plane: the probe round that
  feeds the three above (``status`` requests to replicas, heartbeat
  notices to primaries answered by one-way ``status`` notices; the
  collector takes the RCP from the same replies), collector takeover, and
  the replica choice for each read.
"""

from repro.ror.rcp import RcpState, compute_rcp
from repro.ror.skyline import NodeMetrics, choose_node, near_pool, skyline
from repro.ror.staleness import StalenessEstimator

__all__ = [
    "compute_rcp",
    "RcpState",
    "NodeMetrics",
    "skyline",
    "choose_node",
    "near_pool",
    "StalenessEstimator",
]
