"""Unit tests for the row lock table."""

from repro.errors import WriteConflict
from repro.sim import Environment, ms, seconds
from repro.storage.locks import LockTable


def test_uncontended_acquire_is_immediate():
    env = Environment()
    locks = LockTable(env)
    event = locks.acquire(1, "t", (1,))
    assert event.triggered and event.ok
    assert locks.holder("t", (1,)) == 1


def test_reentrant_acquire():
    env = Environment()
    locks = LockTable(env)
    locks.acquire(1, "t", (1,))
    again = locks.acquire(1, "t", (1,))
    assert again.triggered and again.ok


def test_waiter_granted_on_release_fifo():
    env = Environment()
    locks = LockTable(env)
    granted = []

    def holder():
        yield locks.acquire(1, "t", (1,))
        yield env.timeout(ms(10))
        locks.release_all(1)

    def waiter(txid, delay):
        yield env.timeout(delay)
        yield locks.acquire(txid, "t", (1,))
        granted.append((txid, env.now))
        yield env.timeout(ms(5))
        locks.release_all(txid)

    env.process(holder())
    env.process(waiter(2, 1))
    env.process(waiter(3, 2))
    env.run()
    assert [txid for txid, _t in granted] == [2, 3]
    assert granted[0][1] == ms(10)
    assert granted[1][1] == ms(15)


def test_lock_wait_timeout_raises_write_conflict():
    env = Environment()
    locks = LockTable(env, default_timeout_ns=ms(20))
    locks.acquire(1, "t", (1,))
    outcome = []

    def waiter():
        yield env.timeout(ms(3))
        try:
            yield locks.acquire(2, "t", (1,))
            outcome.append("granted")
        except WriteConflict as exc:
            outcome.append((str(exc), env.now))

    env.process(waiter())
    env.run()
    # Exactly acquire + timeout, with the message callers match on.
    assert outcome == [("lock wait timeout on t(1,) (txn 2)", ms(23))]
    assert (locks.timeout_count, locks.deadlock_count) == (1, 0)


def test_timed_out_waiter_skipped_on_release():
    env = Environment()
    locks = LockTable(env, default_timeout_ns=ms(5))
    locks.acquire(1, "t", (1,))
    results = []

    def impatient():
        try:
            yield locks.acquire(2, "t", (1,))
            results.append("2-granted")
        except WriteConflict:
            results.append("2-timeout")

    def patient():
        yield locks.acquire(3, "t", (1,), timeout_ns=ms(100))
        results.append(("3-granted", env.now))

    def holder():
        yield env.timeout(ms(10))
        locks.release_all(1)

    env.process(impatient())
    env.process(patient())
    env.process(holder())
    env.run()
    assert "2-timeout" in results
    assert ("3-granted", ms(10)) in results
    assert locks.holder("t", (1,)) == 3


def test_grant_in_the_deadline_tick_wins_when_the_release_runs_first():
    # The holder's timer was scheduled before the waiter's deadline, so at
    # 20 ms the release runs first: the grant withdraws a deadline whose
    # tick is already executing, which must then fire as a no-op.
    env = Environment()
    locks = LockTable(env, default_timeout_ns=ms(20))
    locks.acquire(1, "t", (1,))
    results = []

    def holder():
        yield env.timeout(ms(20))
        locks.release_all(1)

    def waiter():
        yield locks.acquire(2, "t", (1,))
        results.append(("granted", env.now))

    env.process(holder())
    env.process(waiter())
    env.run()
    assert results == [("granted", ms(20))]
    assert locks.holder("t", (1,)) == 2
    assert (locks.timeout_count, locks.deadlock_count) == (0, 0)


def test_contended_grants_retain_only_in_flight_entries():
    # Counted, not timed: 10 000 waits that end in a grant must not leave
    # 10 000 wait deadlines in the calendar queue or the armed ledger.
    # Wait deadlines are armed, never bucketed, so the ledger is where a
    # leak would show.
    env = Environment()
    locks = LockTable(env, default_timeout_ns=seconds(3600))
    high_water = [0, 0, 0]

    def txn(me):
        for turn in range(5_000):
            grant = locks.acquire((me, turn), "t", (1,))
            armed = sum(len(entries) for entries in env._armed.values())
            high_water[2] = max(high_water[2], armed)
            yield grant
            yield env.timeout(1_000)  # the other side queues up meanwhile
            locks.release_all((me, turn))
            entries = sum(len(bucket) for bucket in env._buckets.values())
            high_water[0] = max(high_water[0], entries)
            high_water[1] = max(high_water[1], len(env._buckets))

    first, second = env.process(txn(0)), env.process(txn(1))
    env.run(until=env.all_of([first, second]))
    assert locks.wait_count >= 9_999
    assert max(high_water[:2]) <= 1  # the other side's sleep
    assert 1 <= high_water[2] <= 2  # at most both sides' wait deadlines


def test_release_all_frees_every_key():
    env = Environment()
    locks = LockTable(env)
    locks.acquire(1, "t", (1,))
    locks.acquire(1, "t", (2,))
    locks.acquire(1, "u", (1,))
    assert locks.locked_count() == 3
    locks.release_all(1)
    assert locks.locked_count() == 0
    assert locks.held_by(1) == set()


def test_different_keys_do_not_contend():
    env = Environment()
    locks = LockTable(env)
    locks.acquire(1, "t", (1,))
    event = locks.acquire(2, "t", (2,))
    assert event.triggered and event.ok


def test_deadlock_counted_separately_from_timeout():
    # AB/BA cycle with no sanitizer: the timeout breaks it, but the abort
    # is classified (and counted) as a deadlock, not a plain timeout.
    env = Environment()
    locks = LockTable(env)
    aborted = []

    def txn(me, delay, first, second):
        yield locks.acquire(me, first, (1,))
        yield env.timeout(delay)
        try:
            yield locks.acquire(me, second, (1,))
        except WriteConflict:
            aborted.append(me)
        locks.release_all(me)

    env.process(txn(1, 1, "a", "b"))
    env.process(txn(2, 2, "b", "a"))
    env.run()
    assert aborted  # the cycle had to be broken
    assert locks.deadlock_count == 1
    assert locks.timeout_count == 0


def test_lock_counters_emitted_into_timeseries():
    from repro.obs import enable_observability

    env = Environment()
    enable_observability(env, metrics=False, trace=False, timeseries=True)
    locks = LockTable(env, default_timeout_ns=ms(20))
    locks.acquire(1, "t", (1,))  # holder never releases

    def waiter():
        try:
            yield locks.acquire(2, "t", (1,))
        except WriteConflict:
            pass

    env.process(waiter())
    env.run()
    assert locks.timeout_count == 1
    series = env.series.series("lock.timeouts")
    assert series is not None
    assert sum(window.last for window in series.windows.values()) == 1
    assert env.series.series("lock.deadlocks") is None


def test_deadlock_emitted_into_timeseries_with_sanitizer():
    from repro.obs import enable_observability
    from repro.san import Sanitizer

    env = Environment()
    enable_observability(env, metrics=False, trace=False, timeseries=True)
    Sanitizer(env).install()
    locks = LockTable(env)

    def txn(me, delay, first, second):
        yield locks.acquire(me, first, (1,))
        yield env.timeout(delay)
        try:
            yield locks.acquire(me, second, (1,))
        except WriteConflict:
            pass
        locks.release_all(me)

    env.process(txn(1, 1, "a", "b"))
    env.process(txn(2, 2, "b", "a"))
    env.run()
    assert locks.deadlock_count == 1
    series = env.series.series("lock.deadlocks")
    assert series is not None
    assert sum(window.last for window in series.windows.values()) == 1
