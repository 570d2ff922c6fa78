"""Tests driving data-node RPC and notice handlers directly (batches,
status, heartbeat notices, conflicts, unknown requests) and GTM server
details."""

import pytest

from repro import ClusterConfig, TxnMode, build_cluster, one_region, three_city
from repro.errors import TransactionError, WriteConflict
from repro.ror.control import HEARTBEAT_INTERVAL_NS
from repro.storage.redo import RedoHeartbeat
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


def quiet_db(mode: str):
    """A One-Region cluster with no control plane, so the only heartbeat
    notices are the test's own; one committed row, then 0.3 s idle."""
    if mode == "gtm":
        config = ClusterConfig.baseline(one_region())
    else:
        config = ClusterConfig.globaldb(one_region(), ror_enabled=False)
    db = build_cluster(config)
    session = db.session()
    session.create_table("t", [("k", "int")], primary_key=["k"])
    session.begin()
    session.insert("t", {"k": 1})
    session.commit()
    db.run_for(0.3)
    return db, session


def notify(db, node, from_collector=True):
    """Send ``node`` a collector's (or another CN's) heartbeat notice and
    let it land (and a GTM begin it makes come back)."""
    db.network.send(db.cns[0].name, node.name,
                    ("heartbeat", db.env.now, from_collector))
    db.run_for(0.001)


def heartbeats(node) -> list:
    wal = node.engine.wal
    return [record for record in wal.records_from(wal.start_lsn - 1)
            if isinstance(record, RedoHeartbeat)]


class TestHeartbeatNotice:
    def test_gclock_heartbeat_uses_clock_lower_bound(self):
        db, _session = quiet_db("gclock")
        primary = db.primaries[0]
        before = primary.engine.max_commit_ts
        notify(db, primary)
        [record] = heartbeats(primary)
        assert record.commit_ts >= before
        _earliest, latest = primary.gclock.bounds()
        assert record.commit_ts <= latest  # never beyond the upper bound
        assert primary.engine.max_commit_ts == record.commit_ts

    def test_gtm_heartbeat_contacts_server(self):
        db, _session = quiet_db("gtm")
        primary = db.primaries[0]
        begins_before = db.gtm.begin_requests
        notify(db, primary)
        assert db.gtm.begin_requests == begins_before + 1
        assert len(heartbeats(primary)) == 1

    @pytest.mark.parametrize("mode", ["gclock", "gtm"])
    def test_busy_primary_logs_no_heartbeat(self, mode):
        db, session = quiet_db(mode)
        primary = db.primaries[db.shard_map.shard_for_key("t", (1,))]
        session.begin()
        session.update("t", (1,), {"k": 1})
        session.commit()
        assert (db.env.now - primary.engine.frontier_moved_at
                < HEARTBEAT_INTERVAL_NS)
        begins_before = db.gtm.begin_requests
        last_lsn = primary.engine.wal.last_lsn
        notify(db, primary)
        assert primary.engine.wal.last_lsn == last_lsn
        assert db.gtm.begin_requests == begins_before

    @pytest.mark.parametrize("mode", ["gclock", "gtm"])
    def test_notices_within_one_interval_log_one_record(self, mode):
        db, _session = quiet_db(mode)
        primary = db.primaries[0]
        begins_before = db.gtm.begin_requests
        for _ in range(3):  # 1 ms apart: the first record moved the frontier
            notify(db, primary)
        assert len(heartbeats(primary)) == 1
        assert db.gtm.begin_requests - begins_before == (mode == "gtm")
        db.run_for(HEARTBEAT_INTERVAL_NS / 1e9)
        notify(db, primary)  # a whole quiet interval later: one more
        assert len(heartbeats(primary)) == 2

    def test_every_notice_is_answered_and_only_a_collector_s_logs(
            self, monkeypatch):
        db, _session = quiet_db("gclock")
        cn, primary = db.cns[0], db.primaries[0]
        answers = []
        monkeypatch.setattr(cn, "_on_notice",
                            lambda payload, message: answers.append(payload))
        first_at = db.env.now
        notify(db, primary, from_collector=False)
        assert heartbeats(primary) == []
        notify(db, primary)
        assert len(heartbeats(primary)) == 1
        assert [(kind, sent_at) for kind, sent_at, _status in answers] \
            == [("status", first_at), ("status", first_at + ms(1))]
        for _kind, _sent_at, status in answers:
            assert (status["name"], status["role"]) == (primary.name,
                                                        "primary")

    def test_replica_or_down_primary_logs_nothing(self):
        db, _session = quiet_db("gclock")
        replica = db.replicas[0][0]
        frontier = replica.engine.max_commit_ts
        notify(db, replica)
        assert replica.engine.wal.last_lsn == 0
        assert replica.engine.max_commit_ts == frontier
        primary = db.primaries[0]
        last_lsn = primary.engine.wal.last_lsn
        primary.fail()
        notify(db, primary)
        primary.recover()
        assert primary.engine.wal.last_lsn == last_lsn
        assert heartbeats(primary) == []


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
        message, and so is an update: the primary's two log shippers (one
        per replica) share one armed batch timer (``Environment.arm``),
        which counts when it comes due, after the reply. A local
        commit adds one GClock commit-wait timeout: the primary's clock
        runs fast in this window, so the first sleep, the gap stretched by
        the drift bound, already carries its earliest bound past the
        timestamp (on a slow clock the bound outgrows the reading and a
        second sleep follows). The handler adds
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
        assert scheduled == {"read": 3, "update": 3, "commit_local": 4}

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


def prepared_on_shard_0(config):
    """``config``'s cluster with one table and a transaction that inserted
    a row and prepared on shard 0's primary through its RPCs: returns
    (db, cn, primary, txid)."""
    db = build_cluster(config)
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")],
                         primary_key=["k"])
    db.run_for(0.3)
    key = next(k for k in range(100)
               if db.shard_map.shard_for_key("t", (k,)) == 0)
    cn, primary, txid = db.cns[0], db.primaries[0], 999_999
    assert rpc(db, cn, primary.name,
               ("insert", txid, "t", {"k": key, "v": 1}))[0] == "ok"
    assert rpc(db, cn, primary.name, ("prepare", txid)) == ("ok",)
    return db, cn, primary, txid


class TestRepeatedPhaseTwo:
    """A coordinator may resend phase 2: the repeat answers ``ok`` from the
    commit log and logs nothing."""

    def test_repeated_commit_prepared_answers_ok(self):
        db, cn, primary, txid = prepared_on_shard_0(
            ClusterConfig.globaldb(one_region()))
        ts = primary.engine.max_commit_ts + 1_000
        body = ("commit_prepared", txid, ts)
        assert rpc(db, cn, primary.name, body) == ("ok", ts)
        lsn, commits = primary.engine.wal.last_lsn, primary.commits
        assert rpc(db, cn, primary.name, body) == ("ok", ts)
        assert primary.engine.wal.last_lsn == lsn
        assert primary.commits == commits

    def test_repeated_abort_prepared_answers_ok(self):
        db, cn, primary, txid = prepared_on_shard_0(
            ClusterConfig.globaldb(one_region()))
        assert rpc(db, cn, primary.name, ("abort_prepared", txid)) == ("ok",)
        lsn, aborts = primary.engine.wal.last_lsn, primary.aborts
        assert rpc(db, cn, primary.name, ("abort_prepared", txid)) == ("ok",)
        assert primary.engine.wal.last_lsn == lsn
        assert primary.aborts == aborts

    def test_a_sync_repeat_answers_no_earlier_than_the_first(self):
        """Under a remote quorum the repeat waits for the acks of the WAL's
        last LSN, which covers the first one's commit record."""
        db, cn, primary, txid = prepared_on_shard_0(
            ClusterConfig.baseline(three_city()))
        ts = primary.engine.max_commit_ts + 1_000
        sent_at = db.env.now
        answered = {}
        for name in ("first", "repeat"):
            request = db.network.request(cn.name, primary.name,
                                         ("commit_prepared", txid, ts))
            request.add_callback(lambda event, name=name: answered.setdefault(
                name, (db.env.now, event.value)))
        db.run_for(0.5)
        (first, first_reply), (repeat, repeat_reply) = (
            answered["first"], answered["repeat"])
        assert first_reply == repeat_reply == ("ok", ts)
        assert sent_at < first <= repeat
        # The first waited for a remote replica's ack: a WAN round trip.
        assert first - sent_at > ms(20)


class TestPhaseTwoErrors:
    """A phase-2 request the participant cannot honour (an unknown txid,
    the other outcome, another timestamp) is answered with ``("error",
    exc)``: it logs nothing, frees its worker and the simulation runs on."""

    @staticmethod
    def assert_refused(db, cn, primary, body):
        lsn, commits, aborts = (primary.engine.wal.last_lsn, primary.commits,
                                primary.aborts)
        kind, exc = rpc(db, cn, primary.name, body)
        assert kind == "error" and isinstance(exc, TransactionError)
        assert primary.engine.wal.last_lsn == lsn
        assert (primary.commits, primary.aborts) == (commits, aborts)
        assert primary.pool.in_use == 0

    @pytest.mark.parametrize("body", [("commit_prepared", 424242, 10**9),
                                      ("abort_prepared", 424242)],
                             ids=["commit_prepared", "abort_prepared"])
    def test_an_unknown_txid_is_refused(self, body):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        db.run_for(0.1)
        cn, primary = db.cns[0], db.primaries[0]
        self.assert_refused(db, cn, primary, body)
        before = db.env.now
        db.run_for(0.1)
        assert db.env.now == before + ms(100)

    def test_the_other_outcome_or_timestamp_is_refused(self):
        db, cn, primary, txid = prepared_on_shard_0(
            ClusterConfig.globaldb(one_region()))
        ts = primary.engine.max_commit_ts + 1_000
        assert rpc(db, cn, primary.name,
                   ("commit_prepared", txid, ts)) == ("ok", ts)
        self.assert_refused(db, cn, primary, ("commit_prepared", txid, ts + 1))
        self.assert_refused(db, cn, primary, ("abort_prepared", txid))


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
