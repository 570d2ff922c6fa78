"""The five benchmark workloads' simulated outcomes, pinned.

A kernel change that only saves queue entries (``events_per_commit``) must
leave every simulated history as it was. Each workload of
``benchmarks/perf/scenarios.py`` is built at seed 0 and driven for 0.2
sim-s, and a digest of what its clients saw is compared with a recording:
committed and aborted counts, committed transactions per type and the
sorted commit latencies. The event count is left out on purpose, so a
change that schedules fewer entries for the same history keeps passing,
and one that moves a single commit by a nanosecond fails.

A change meant to alter simulated behaviour re-records the digests and
says which moved and why.
"""

import hashlib

import pytest

from repro.workloads import run_workload
from test_no_garbage_cycles import SCENARIOS

#: Digest per workload, recorded with the kernel that pushed every wait.
PINNED = {
    "hot_rows_three_city": "6fa0e46f55d0b877",
    "point_select_one_region": "c8868da4211a8154",
    "sql_mixed_three_city": "24249654ffe0eedf",
    "tpcc_gtm_sync_three_city": "2a839590602cabb7",
    "tpcc_three_city": "c80d713044c98af2",
}


def outcome_digest(stats) -> str:
    outcome = (stats.committed, stats.aborted, sorted(stats.by_type.items()),
               sorted(stats.latencies_ns))
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workload_outcome_matches_recording(name):
    scenario = SCENARIOS[name]
    db, workload = scenario.build(0)
    result = run_workload(db, workload, terminals=scenario.terminals,
                          duration_s=0.2, setup=False)
    assert result.stats.committed > 0
    assert outcome_digest(result.stats) == PINNED[name]
