"""Cluster assembly: nodes, topology, sharding, and the GlobalDB facade.

This package wires the substrates into a running database:

- :mod:`repro.cluster.topology` — region/latency presets, including the
  paper's One-Region and Three-City (Xi'an/Langzhong/Dongguan) clusters.
- :mod:`repro.cluster.sharding` — hash/range/replicated distribution of
  tables over shards, and shard placement over regions.
- :mod:`repro.cluster.dn` / :mod:`repro.cluster.cn` — data nodes (primary
  and replica roles) and computing nodes (transaction coordination and
  read-only queries; their ROR control plane is :mod:`repro.ror.control`).
- :mod:`repro.cluster.builder` — :class:`~repro.cluster.builder.GlobalDB`,
  the top-level handle, built from a :class:`~repro.cluster.builder.ClusterConfig`.
- :mod:`repro.cluster.client` — synchronous client sessions for examples
  and interactive use.
"""

from repro.cluster.builder import ClusterConfig, GlobalDB, build_cluster
from repro.cluster.client import Session
from repro.cluster.sharding import ShardMap
from repro.cluster.topology import Topology, one_region, three_city, two_region

__all__ = [
    "GlobalDB",
    "ClusterConfig",
    "build_cluster",
    "Session",
    "ShardMap",
    "Topology",
    "one_region",
    "two_region",
    "three_city",
]
