"""Determinism and cross-cutting end-to-end invariants.

Reproducibility is a design requirement (DESIGN.md §4.1): identical
configurations and seeds must produce bit-identical histories, or the
benchmark tables in EXPERIMENTS.md would not be checkable claims.
"""

from repro import ClusterConfig, TransactionAborted, build_cluster, one_region, three_city
from repro.workloads import SysbenchConfig, SysbenchWorkload, TpccConfig, TpccWorkload, run_workload


def run_once(seed=0, workload_seed=42, observability=False):
    db = build_cluster(ClusterConfig.globaldb(
        one_region(), seed=seed, metrics_enabled=observability,
        trace_enabled=observability))
    workload = TpccWorkload(TpccConfig(
        warehouses=2, districts_per_warehouse=2, customers_per_district=10,
        items=20, initial_orders_per_district=5, seed=workload_seed))
    result = run_workload(db, workload, terminals=4, duration_s=0.7,
                          warmup_s=0.1)
    return (result.stats.committed, result.stats.aborted,
            dict(result.stats.by_type), db.env.now,
            db.gtm.counter, sorted(result.stats.latencies_ns)[:20])


class TestDeterminism:
    def test_same_seeds_produce_identical_runs(self):
        assert run_once() == run_once()

    def test_different_workload_seed_changes_history(self):
        assert run_once(workload_seed=42) != run_once(workload_seed=43)

    def test_observability_does_not_perturb_history(self):
        """Metrics + tracing are passive: a traced run's history is
        identical to the untraced run's, down to every latency sample."""
        assert run_once(observability=True) == run_once(observability=False)

    def test_traced_run_is_itself_deterministic(self):
        assert run_once(observability=True) == run_once(observability=True)

    def test_trace_digest_identical_across_fresh_runs(self):
        """The obs trace digest — the value the cross-process
        PYTHONHASHSEED harness (python -m repro.lint --determinism)
        compares — is identical across two in-process runs on
        freshly-built clusters."""
        def digest_once():
            db = build_cluster(ClusterConfig.globaldb(
                one_region(), seed=0, trace_enabled=True))
            workload = TpccWorkload(TpccConfig(
                warehouses=2, districts_per_warehouse=2,
                customers_per_district=10, items=20,
                initial_orders_per_district=5, seed=42))
            run_workload(db, workload, terminals=4, duration_s=0.3,
                         warmup_s=0.05)
            assert db.env.tracer.spans, "traced run recorded no spans"
            return db.env.tracer.digest()

        first, second = digest_once(), digest_once()
        assert len(first) == 64
        assert first == second

    def test_sysbench_deterministic(self):
        def once():
            db = build_cluster(ClusterConfig.globaldb(one_region(), seed=3))
            workload = SysbenchWorkload(SysbenchConfig(tables=2,
                                                       rows_per_table=40))
            result = run_workload(db, workload, terminals=6, duration_s=0.4)
            return result.stats.committed, db.env.now

        assert once() == once()


class TestMoneyConservation:
    """A cross-shard invariant under concurrent transfers, replica reads,
    a mode migration, and a replica failure — all at once."""

    def test_invariant_holds_through_chaos(self):
        db = build_cluster(ClusterConfig.baseline(three_city(),
                                                  ror_enabled=True))
        session = db.session(region="xian")
        session.create_table("accounts", [("id", "int"), ("balance", "int")],
                             primary_key=["id"])
        accounts = 18
        session.begin()
        for i in range(accounts):
            session.insert("accounts", {"id": i, "balance": 1000})
        session.commit()
        db.run_for(0.3)
        env = db.env
        stop_at = env.now + 2_500_000_000
        import random
        rng = random.Random(5)

        def transferer(cn):
            while env.now < stop_at:
                src, dst = rng.sample(range(accounts), 2)
                amount = rng.randint(1, 20)
                ctx = yield from cn.g_begin()
                try:
                    yield from cn.g_update(ctx, "accounts", (src,), {
                        "balance": lambda b, a=amount: (b or 0) - a})
                    yield from cn.g_update(ctx, "accounts", (dst,), {
                        "balance": lambda b, a=amount: (b or 0) + a})
                    yield from cn.g_commit(ctx)
                except TransactionAborted:
                    pass

        audit_totals = []

        def auditor(cn):
            while env.now < stop_at:
                try:
                    rows = yield from cn.g_scan_only("accounts")
                    audit_totals.append(sum(row["balance"] for row in rows))
                except TransactionAborted:
                    pass
                yield env.timeout(100_000_000)

        for cn in db.cns:
            env.process(transferer(cn))
        env.process(auditor(db.cns[1]))

        def chaos():
            yield env.timeout(400_000_000)
            db.replicas[0][0].fail()             # kill a replica
            migration = env.process(db.migration.to_gclock(), name="migrate")
            yield migration                      # live mode migration
            yield env.timeout(300_000_000)
            db.replicas[0][0].recover()

        env.process(chaos())
        env.run(until=stop_at)
        assert audit_totals, "auditor never completed a scan"
        assert all(total == accounts * 1000 for total in audit_totals), \
            f"conservation violated: {set(audit_totals)}"
        # And the final primary-side state agrees.
        session.begin()
        rows = session.scan("accounts")
        session.commit()
        assert sum(row["balance"] for row in rows) == accounts * 1000
