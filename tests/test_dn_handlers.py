"""Tests driving data-node RPC handlers directly (batches, status,
heartbeats, conflicts, unknown requests) and GTM server details."""

from repro import ClusterConfig, TxnMode, build_cluster, one_region
from repro.errors import WriteConflict
from repro.sim.units import ms, us


def make_db():
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")],
                         primary_key=["k"])
    session.begin()
    for i in range(30):
        session.insert("t", {"k": i, "v": i * 10})
    session.commit()
    db.run_for(0.3)
    return db, session


def rpc(db, src, dst, body, timeout_ns=None):
    request = db.network.request(src.name, dst, body, timeout_ns=timeout_ns)

    def waiter():
        reply = yield request
        return reply

    return db.env.run(until=db.env.process(waiter()))


class TestBatchReads:
    def test_read_batch_on_primary(self):
        db, session = make_db()
        cn = db.cns[0]
        shard = db.shard_map.shard_for_key("t", (0,))
        keys = [(k,) for k in range(30)
                if db.shard_map.shard_for_key("t", (k,)) == shard]
        rows, read_ts = rpc(db, cn, db.primaries[shard].name,
                            ("read_batch", None, None, "t", keys))
        assert len(rows) == len(keys)
        assert all(row is not None for row in rows)
        assert read_ts > 0

    def test_read_batch_missing_keys_give_none(self):
        db, session = make_db()
        cn = db.cns[0]
        shard = db.shard_map.shard_for_key("t", (999,))
        rows, _ts = rpc(db, cn, db.primaries[shard].name,
                        ("read_batch", None, None, "t", [(999,)]))
        assert rows == [None]

    def test_replica_batch_read(self):
        db, session = make_db()
        cn = db.cns[0]
        shard = db.shard_map.shard_for_key("t", (0,))
        keys = [(k,) for k in range(30)
                if db.shard_map.shard_for_key("t", (k,)) == shard]
        replica = db.replicas[shard][0]
        rcp = cn.rcp_state.rcp
        rows, _ts = rpc(db, cn, replica.name,
                        ("read_replica_batch", rcp, "t", keys))
        assert all(row is not None for row in rows)


class TestStatusSurface:
    def test_primary_status_fields(self):
        db, _session = make_db()
        status = rpc(db, db.cns[0], db.primaries[0].name, ("status",))
        assert status["role"] == "primary"
        assert status["up"] is True
        assert status["max_commit_ts"] > 0
        assert status["shard"] == 0

    def test_replica_status_reports_backlog_in_load(self):
        db, _session = make_db()
        replica = db.replicas[0][0]
        status = rpc(db, db.cns[0], replica.name, ("status",))
        assert status["role"] == "replica"
        assert status["load"] >= 0

    def test_unknown_request_fails_cleanly(self):
        db, _session = make_db()
        request = db.network.request(db.cns[0].name, db.primaries[0].name,
                                     ("frobnicate",))

        def waiter():
            try:
                yield request
            except ValueError as exc:
                return str(exc)

        message = db.env.run(until=db.env.process(waiter()))
        assert "unknown request" in message


class TestHeartbeatRpc:
    def test_gclock_heartbeat_uses_clock_lower_bound(self):
        db, _session = make_db()
        primary = db.primaries[0]
        before = primary.engine.last_commit_ts
        _ok, ts = rpc(db, db.cns[0], primary.name, ("heartbeat",))
        assert ts >= before
        earliest, latest = primary.gclock.bounds()
        assert ts <= latest  # never beyond the clock's upper bound

    def test_gtm_heartbeat_contacts_server(self):
        db = build_cluster(ClusterConfig.baseline(one_region()))
        session = db.session()
        session.create_table("t", [("k", "int")], primary_key=["k"])
        begins_before = db.gtm.begin_requests
        rpc(db, db.cns[0], db.primaries[0].name, ("heartbeat",))
        assert db.gtm.begin_requests == begins_before + 1


class TestWriteConflictSurface:
    def test_conflicting_update_times_out_and_reports(self):
        db, session = make_db()
        cn = db.cns[0]
        shard = db.shard_map.shard_for_key("t", (0,))
        key = next(k for k in range(30)
                   if db.shard_map.shard_for_key("t", (k,)) == shard)
        primary = db.primaries[shard]
        # Shrink the lock timeout so the test is fast.
        primary.engine.locks.default_timeout_ns = ms(20)

        def holder():
            ctx = yield from cn.g_begin()
            yield from cn.g_update(ctx, "t", (key,), {"v": 1})
            yield db.env.timeout(ms(100))  # hold the lock
            yield from cn.g_commit(ctx)

        outcome = []

        def contender():
            yield db.env.timeout(ms(2))
            ctx = yield from cn.g_begin()
            try:
                yield from cn.g_update(ctx, "t", (key,), {"v": 2})
            except WriteConflict as exc:
                outcome.append(str(exc))

        db.env.process(holder())
        db.env.process(contender())
        db.run_for(0.3)
        assert outcome and "timeout" in outcome[0]


def idle_cluster_with_one_row():
    """An otherwise idle cluster (no ROR control plane) holding row 1 of
    ``t``: the CN, the row's primary and a txid nobody else uses."""
    db = build_cluster(ClusterConfig.globaldb(one_region(),
                                              ror_enabled=False))
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")],
                         primary_key=["k"])
    session.begin()
    session.insert("t", {"k": 1, "v": 10})
    session.commit()
    db.run_for(0.3)
    primary = db.primaries[db.shard_map.shard_for_key("t", (1,))]
    return db, db.cns[0], primary, 987_654_321


class TestRequestEventCost:
    def test_one_rpc_schedules_a_pinned_number_of_events(self):
        """Queue pushes from sending one request until its reply fires. A
        read is the request message, the CPU timeout and the reply
        message, and so is an update: the log shipper's two batch timers
        (one per replica) are armed (``Environment.arm``), so each counts
        when it comes due, and both come due after the reply. A local
        commit adds the two GClock commit-wait timeouts. The handler adds
        no kickoff and no completion (``Environment.serve``), and a commit
        nobody reads around resolves without an event. Nor are the waits
        that are already satisfied pushed: on an idle cluster each is the
        last entry of its tick, so ``Environment.resolve`` grants it in
        place. Those are the free worker-pool slot (one push fewer on each
        call), the free row lock (one more on the update) and the reply,
        whose delivery ends its tick."""
        db, cn, primary, txid = idle_cluster_with_one_row()
        env = db.env
        calls = [("read", None, None, "t", (1,)),
                 ("update", txid, "t", (1,), {"v": 11}),
                 ("commit_local", txid, cn.mode)]
        scheduled, replies = {}, {}

        def driver():
            for body in calls:
                before = env.events_scheduled
                replies[body[0]] = yield db.network.request(
                    cn.name, primary.name, body)
                scheduled[body[0]] = env.events_scheduled - before

        env.run(until=env.process(driver()))
        assert replies["update"][0] == replies["commit_local"][0] == "ok"
        assert scheduled == {"read": 3, "update": 3, "commit_local": 5}

    def test_a_reply_that_shares_its_tick_is_still_pushed(self):
        """The same read twice; the second time an entry queued at the
        reply's instant queues one more behind the reply's delivery. The
        delivery is then not the last entry of its tick, so the reply
        event is pushed: the read costs its pinned 3, the two extra
        entries and the reply event. The free worker-pool slot is granted
        in place both times: the handler takes it on the request's
        delivery, which ends its tick."""
        db, cn, primary, _txid = idle_cluster_with_one_row()
        env = db.env
        body = ("read", None, None, "t", (1,))
        scheduled, replies, behind = [], [], []

        def queue_one_more(_arg) -> None:
            env.defer(0, behind.append, env.now)

        def driver():
            for share_the_tick in (False, True):
                before, start = env.events_scheduled, env.now
                if share_the_tick:
                    env.defer(round_trip, queue_one_more, None)
                replies.append((yield db.network.request(
                    cn.name, primary.name, body)))
                scheduled.append(env.events_scheduled - before)
                round_trip = env.now - start

        env.run(until=env.process(driver()))
        assert scheduled == [3, 3 + 2 + 1]
        assert replies[0] == replies[1] and behind == [env.now]


class TestGtmServerDetails:
    def test_service_time_delays_replies(self):
        db = build_cluster(ClusterConfig.baseline(one_region()))
        cn = next(c for c in db.cns if c.region == db.gtm.region)
        start = db.env.now
        rpc(db, cn, "gtms", ("begin",))
        elapsed = db.env.now - start
        # Same-server link is ~free; the 2 us service time dominates.
        assert elapsed >= us(2)

    def test_get_state_snapshot(self):
        db = build_cluster(ClusterConfig.baseline(one_region()))
        state = rpc(db, db.cns[0], "gtms", ("get_state",))
        assert state["mode"] is TxnMode.GTM
        assert state["counter"] >= 0

    def test_report_gclock_raises_watermarks(self):
        db = build_cluster(ClusterConfig.baseline(one_region()))
        rpc(db, db.cns[0], "gtms", ("report_gclock", 10**15, 70_000))
        assert db.gtm.max_gclock_seen == 10**15
        assert db.gtm.max_err_seen == 70_000
