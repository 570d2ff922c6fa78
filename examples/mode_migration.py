"""Live transaction-management migration, including clock-failure fallback.

The scenario §III-A motivates: a Three-City GlobalDB cluster is running in
GClock mode when a regional time device fails (GPS signal loss). The
operator migrates the live cluster to centralized GTM mode through DUAL
mode — with transactions flowing throughout — repairs the clock, and
migrates back. Per-window commit counts show zero downtime; the per-writer
timestamp check shows monotonicity straight through both transitions.

Run:  python examples/mode_migration.py
"""

from repro import ClusterConfig, TransactionAborted, build_cluster, three_city
from repro.sim.units import SECOND, ms

WINDOW_NS = ms(100)
#: The error bound past which this operator stops trusting the clock for
#: GClock transactions (every commit waits out the bound, Eq. 1).
MAX_TRUSTED_ERROR_NS = ms(1)


def main() -> None:
    db = build_cluster(ClusterConfig.globaldb(three_city()))
    session = db.session(region="xian")
    session.execute("CREATE TABLE counters (id INT PRIMARY KEY, n INT)")
    env = db.env

    # Give each city's writer a counter row homed on a local shard, as a
    # well-placed application would (the paper's "physical affinity").
    local_key: dict[str, int] = {}
    candidate = 1
    while len(local_key) < len(db.cns):
        shard = db.shard_map.shard_for_value("counters", candidate)
        region = db.primaries[shard].region
        if region not in local_key:
            local_key[region] = candidate
        candidate += 1
    keys = [local_key[cn.region] for cn in db.cns]
    session.begin()
    for key in keys:
        session.insert("counters", {"id": key, "n": 0})
    session.commit()

    commits_by_window: dict[int, int] = {}
    per_writer_ts: dict[int, list] = {key: [] for key in keys}
    events: list[tuple[int, str]] = []
    stop_at = env.now + 8 * SECOND

    def writer(index, key):
        cn = db.cns[index]
        while env.now < stop_at:
            ctx = yield from cn.g_begin()
            try:
                yield from cn.g_update(ctx, "counters", (key,), {
                    "n": lambda n: (n or 0) + 1})
                ts = yield from cn.g_commit(ctx)
                per_writer_ts[key].append(ts)
                window = env.now // WINDOW_NS
                commits_by_window[window] = commits_by_window.get(window, 0) + 1
            except TransactionAborted as exc:
                events.append((env.now, f"txn aborted: {exc.reason}"))

    for index, key in enumerate(keys):
        env.process(writer(index, key))

    def conductor():
        yield env.timeout(round(0.6 * SECOND))
        device = db.cns[0].sync.device
        device.fail()
        events.append((env.now, "TIME DEVICE FAILED in xian (GPS loss)"))
        # The error bound grows with unsynced drift; after a few seconds
        # the clock is no longer trustworthy for GClock transactions.
        yield env.timeout(round(4.8 * SECOND))
        error_ns = db.cns[0].gclock.sync.error_bound_ns()
        events.append((env.now, f"xian clock error bound {error_ns / 1e6:.2f} ms "
                                f"(trusted up to {MAX_TRUSTED_ERROR_NS / 1e6:.0f} ms)"
                                f" -> fall back to GTM"))
        report = yield from db.migration.to_gtm()
        events.append((env.now, f"now in GTM mode "
                                f"(transition took {report.duration_ns / 1e6:.0f} ms, "
                                f"no dwell needed)"))
        yield env.timeout(round(1.0 * SECOND))
        device.recover()
        events.append((env.now, "time device repaired"))
        yield env.timeout(round(0.2 * SECOND))
        report = yield from db.migration.to_gclock()
        events.append((env.now, f"back in GClock mode "
                                f"(dwell {report.dwell_ns / 1e3:.0f} us = "
                                f"2 x max error bound)"))

    env.process(conductor())
    env.run(until=stop_at)

    print("timeline:")
    for when, message in events:
        print(f"  t={when / 1e9:5.2f}s  {message}")

    print("\ncommits per 100 ms window (zero anywhere = downtime):")
    windows = sorted(commits_by_window)
    counts = [commits_by_window[w] for w in windows]
    print("  " + " ".join(f"{count:3d}" for count in counts))
    print(f"  zero-commit windows: {sum(1 for c in counts if c == 0)}")

    for key, series in per_writer_ts.items():
        monotone = series == sorted(series) and len(set(series)) == len(series)
        print(f"writer {key}: {len(series)} commits, timestamps strictly "
              f"increasing through both transitions: {monotone}")


if __name__ == "__main__":
    main()
