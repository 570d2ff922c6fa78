"""Cluster topologies: regions and inter-region links.

Presets mirror the paper's two experimental clusters (§V):

- :func:`one_region` — three servers in one rack on 10 GbE (the paper's
  One-Region cluster). ``tc``-style delay can be injected on top for the
  Fig. 6b-6d sweeps.
- :func:`three_city` — Xi'an, Langzhong, Dongguan, forming a triangle with
  25 / 35 / 55 ms one-way edges and constrained inter-city bandwidth (the
  paper's Three-City cluster).
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field

from repro.sim.units import ms, us


@dataclass(frozen=True)
class Topology:
    """Regions plus pairwise one-way latency and bandwidth."""

    name: str
    regions: tuple[str, ...]
    #: (region_a, region_b) -> one-way latency ns (symmetric; missing
    #: pairs use intra_latency if same region).
    latency: typing.Mapping[tuple[str, str], int] = field(default_factory=dict)
    intra_latency_ns: int = us(50)
    intra_bandwidth_bps: float = 10e9  # 10 GbE within a rack/region
    inter_bandwidth_bps: float = 10e9
    jitter_ns: int = 0

    def latency_ns(self, region_a: str, region_b: str) -> int:
        if region_a == region_b:
            return self.intra_latency_ns
        key = (region_a, region_b)
        if key in self.latency:
            return self.latency[key]
        return self.latency[(region_b, region_a)]

    def bandwidth_bps(self, region_a: str, region_b: str) -> float:
        return (self.intra_bandwidth_bps if region_a == region_b
                else self.inter_bandwidth_bps)


def one_region(servers: int = 3) -> Topology:
    """The paper's One-Region cluster: ``servers`` machines in one rack on
    10 GbE.

    Each "region" is one physical server (the paper's clusters put one CN,
    two primary DNs and four replica DNs on each of three servers); the
    50 us links model the in-rack network, and ``tc``-style delay injection
    (Figs. 6b-6d) applies between servers exactly as in the paper.
    """
    names = tuple(f"server{i + 1}" for i in range(servers))
    latency = {pair: us(50) for pair in itertools.combinations(names, 2)}
    return Topology(name="one-region", regions=names, latency=latency)


def two_region(latency: int = ms(30)) -> Topology:
    """A simple two-region topology (used in tests and small examples)."""
    return Topology(
        name="two-region",
        regions=("east", "west"),
        latency={("east", "west"): latency},
        inter_bandwidth_bps=1e9,
    )


def three_city() -> Topology:
    """The paper's Three-City cluster: Xi'an / Langzhong / Dongguan with
    25, 35, and 55 ms edges and constrained inter-city bandwidth."""
    return Topology(
        name="three-city",
        regions=("xian", "langzhong", "dongguan"),
        latency={
            ("xian", "langzhong"): ms(25),
            ("langzhong", "dongguan"): ms(35),
            ("xian", "dongguan"): ms(55),
        },
        inter_bandwidth_bps=200e6,  # "considerably lower" than 10 GbE
    )


def chain_topology(region_count: int, hop_latency_ns: int = ms(20)) -> Topology:
    """N regions on a line, ``hop_latency_ns`` per hop — used by the
    Fig. 1a motivation sweep ('more distant regions')."""
    regions = tuple(f"region{i}" for i in range(region_count))
    latency = {}
    for i in range(region_count):
        for j in range(i + 1, region_count):
            latency[(regions[i], regions[j])] = hop_latency_ns * (j - i)
    return Topology(
        name=f"chain-{region_count}",
        regions=regions,
        latency=latency,
        inter_bandwidth_bps=200e6,
    )
