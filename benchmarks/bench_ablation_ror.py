"""Ablation — the §IV reads-on-replica machinery.

Variants: full ROR with skyline routing; ROR with crippled (serial) redo
replay; and ROR disabled (all reads to primaries). Shows where the read
throughput comes from and how replay speed bounds freshness.
"""

from conftest import record_table

from repro.bench import Scale, ablation_ror


def test_ablation_ror(benchmark):
    table = benchmark.pedantic(ablation_ror, args=(Scale.from_env(),),
                               rounds=1, iterations=1)
    record_table(benchmark, table)
    rows = {row[0]: row for row in table.rows}
    with_ror = rows["skyline + replicas"]
    without = rows["primaries only (no ROR)"]
    # Replica reads dominate primary reads on a geo cluster.
    assert with_ror[2] > 1.5 * without[2]
    assert with_ror[3] > 0          # replicas actually served reads
    assert without[3] == 0          # and never when ROR is off
    # Throttled serial replay leaves the RCP several times further behind
    # the frontier (145 ms vs 1 110 ms at quick scale). A ratio, not ``>``:
    # a replica that replays faster than one worker reads 175 ms, and
    # ``>`` would pass that too.
    fast = rows["parallel replay (x8)"]
    slow = rows["throttled serial replay"]
    assert slow[5] > 3 * fast[5]
