"""Tests for semaphores, the settle combinator, and time units."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, ms, seconds, us
from repro.sim.events import settle
from repro.sim.resources import Semaphore
from repro.sim.units import MINUTE, ns_to_ms


class TestSemaphore:
    def test_capacity_enforced(self):
        env = Environment()
        pool = Semaphore(env, capacity=2)
        order = []

        def worker(name):
            yield pool.acquire()
            order.append((name, "in", env.now))
            yield env.timeout(10)
            pool.release()
            order.append((name, "out", env.now))

        for name in "abc":
            env.process(worker(name))
        env.run()
        ins = [(name, when) for name, what, when in order if what == "in"]
        # Third worker waits for a release.
        assert ins == [("a", 0), ("b", 0), ("c", 10)]

    def test_fifo_fairness(self):
        env = Environment()
        pool = Semaphore(env, capacity=1)
        granted = []

        def worker(name, start_delay):
            yield env.timeout(start_delay)
            yield pool.acquire()
            granted.append(name)
            yield env.timeout(5)
            pool.release()

        env.process(worker("first", 0))
        env.process(worker("second", 1))
        env.process(worker("third", 2))
        env.run()
        assert granted == ["first", "second", "third"]

    def test_release_without_acquire_rejected(self):
        env = Environment()
        pool = Semaphore(env, capacity=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Semaphore(env, capacity=0)

    def test_load_metric(self):
        env = Environment()
        pool = Semaphore(env, capacity=2)
        pool.acquire()
        assert pool.load == pytest.approx(0.5)
        pool.acquire()
        pool.acquire()  # queued
        assert pool.load == pytest.approx(1.5)
        assert pool.queue_length == 1
        assert pool.peak_queue == 1


class TestSettle:
    def test_settle_waits_for_all_outcomes(self):
        env = Environment()
        good = env.timeout(10, value="ok")
        bad = env.event()

        def failer():
            yield env.timeout(20)
            bad.fail(RuntimeError("x"))

        env.process(failer())

        def waiter():
            yield settle(env, [good, bad])
            return env.now, good.ok, bad.ok

        when, good_ok, bad_ok = env.run(until=env.process(waiter()))
        assert when == 20
        assert good_ok and not bad_ok

    def test_settle_failure_does_not_propagate(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("contained"))

        def waiter():
            yield settle(env, [bad])
            return "survived"

        assert env.run(until=env.process(waiter())) == "survived"

    def test_settle_empty_fires_immediately(self):
        env = Environment()

        def waiter():
            yield settle(env, [])
            return env.now

        assert env.run(until=env.process(waiter())) == 0

    def test_settle_with_already_processed_children(self):
        env = Environment()
        done = env.timeout(1)
        env.run(until=10)

        def waiter():
            yield settle(env, [done])
            return env.now

        assert env.run(until=env.process(waiter())) == 10


class TestUnits:
    def test_conversions_round_trip(self):
        assert us(1) == 1_000
        assert ms(1) == 1_000_000
        assert seconds(1) == 1_000_000_000
        assert MINUTE == 60 * seconds(1)
        assert ns_to_ms(ms(7.25)) == pytest.approx(7.25)

    def test_fractional_values_round(self):
        assert us(0.5) == 500
        assert ms(0.0001) == 100
