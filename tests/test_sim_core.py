"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt
from repro.sim.events import PRIORITY_URGENT


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(100)
        return env.now

    result = env.run(until=env.process(proc()))
    assert result == 100
    assert env.now == 100


def test_timeout_value_is_delivered():
    env = Environment()

    def proc():
        value = yield env.timeout(5, value="hello")
        return value

    assert env.run(until=env.process(proc())) == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_time_stops_exactly():
    env = Environment()
    fired = []

    def proc():
        while True:
            yield env.timeout(10)
            fired.append(env.now)

    env.process(proc())
    env.run(until=35)
    assert fired == [10, 20, 30]
    assert env.now == 35


def test_run_backwards_rejected():
    env = Environment()
    env.run(until=100)
    with pytest.raises(SimulationError):
        env.run(until=50)


def test_processes_interleave_deterministically():
    env = Environment()
    order = []

    def worker(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(worker("slow", 20))
    env.process(worker("fast", 10))
    env.process(worker("tie-a", 15))
    env.process(worker("tie-b", 15))
    env.run()
    # Ties break by creation order of the timeout events.
    assert order == ["fast", "tie-a", "tie-b", "slow"]


def test_process_return_value_propagates_to_joiner():
    env = Environment()

    def child():
        yield env.timeout(1)
        return 42

    def parent():
        value = yield env.process(child())
        return value * 2

    assert env.run(until=env.process(parent())) == 84


def test_process_exception_propagates_to_joiner():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(until=env.process(parent())) == "caught boom"


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("unseen")

    env.process(child())
    with pytest.raises(ValueError, match="unseen"):
        env.run()


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_interrupt_wakes_waiting_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
            log.append("slept")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, env.now))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(50)
        proc.interrupt(cause="failover")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", "failover", 50)]


def test_interrupt_finished_process_is_an_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        fast = env.timeout(10, value="fast")
        slow = env.timeout(100, value="slow")
        result = yield env.any_of([fast, slow])
        return (fast in result, slow in result, env.now)

    assert env.run(until=env.process(proc())) == (True, False, 10)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        events = [env.timeout(delay, value=delay) for delay in (5, 15, 10)]
        result = yield env.all_of(events)
        return sorted(result.todict().values()), env.now

    values, when = env.run(until=env.process(proc()))
    assert values == [5, 10, 15]
    assert when == 15


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    assert env.run(until=env.process(proc())) == 0


def test_condition_failure_propagates():
    env = Environment()

    def proc():
        good = env.timeout(10)
        bad = env.event()
        bad.fail(RuntimeError("child failed"))
        try:
            yield env.all_of([good, bad])
        except RuntimeError as exc:
            return str(exc)

    assert env.run(until=env.process(proc())) == "child failed"


def test_run_until_event_returns_value():
    env = Environment()
    event = env.event()

    def firer():
        yield env.timeout(7)
        event.succeed("payload")

    env.process(firer())
    assert env.run(until=event) == "payload"
    assert env.now == 7


def test_run_until_never_firing_event_is_error():
    env = Environment()
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=env.event())


def test_urgent_priority_runs_first():
    env = Environment()
    order = []

    normal = env.event()
    urgent = env.event()
    normal._ok = True
    urgent._ok = True
    normal.callbacks.append(lambda _e: order.append("normal"))
    urgent.callbacks.append(lambda _e: order.append("urgent"))
    env.schedule(normal, delay=10)
    env.schedule(urgent, delay=10, priority=PRIORITY_URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_peek_and_step():
    """``peek`` names the next tick; running one past it steps over it."""
    env = Environment()
    fired = []
    env.timeout(30).callbacks.append(lambda _e: fired.append(env.now))
    env.timeout(50)
    assert env.peek() == 30
    env.run(until=env.peek() + 1)
    assert fired == [30] and env.now == 31
    assert env.peek() == 50
    env.run()
    assert env.peek() is None
