"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError, SimulationError
from repro.sim import Environment, ms, seconds, us
from repro.sim.network import Network


def make_net(bandwidth_bps=1e12):
    env = Environment()
    net = Network(env, default_bandwidth_bps=bandwidth_bps)
    net.add_endpoint("a", "east")
    net.add_endpoint("b", "west")
    net.set_link("a", "b", latency_ns=ms(25))
    return env, net


def test_one_way_latency():
    env, net = make_net()
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append((msg.payload, env.now)))
    net.send("a", "b", "hello", size_bytes=100)
    env.run()
    assert len(arrivals) == 1
    payload, when = arrivals[0]
    assert payload == "hello"
    assert ms(25) <= when < ms(25.1)


def test_rpc_round_trip_takes_rtt():
    env, net = make_net()
    net.set_handler("b", lambda msg: msg.payload.reply(msg.payload.body * 2))

    def client():
        value = yield net.request("a", "b", 21)
        return value, env.now

    value, when = env.run(until=env.process(client()))
    assert value == 42
    assert ms(50) <= when < ms(50.1)


def test_rpc_to_down_endpoint_fails_fast():
    env, net = make_net()
    net.set_endpoint_up("b", False)

    def client():
        try:
            yield net.request("a", "b", "x")
        except NetworkError as exc:
            return str(exc)

    assert "down" in env.run(until=env.process(client()))


def test_rpc_timeout_fires():
    env, net = make_net()
    net.set_handler("b", lambda msg: None)  # never replies

    def client():
        yield env.timeout(ms(3))
        try:
            yield net.request("a", "b", "x", timeout_ns=ms(10))
        except NetworkError as exc:
            return str(exc), env.now

    message, when = env.run(until=env.process(client()))
    assert message == "RPC to b timed out"
    assert when == ms(3) + ms(10)  # exactly send + timeout_ns


def test_message_to_down_endpoint_is_dropped():
    env, net = make_net()
    delivered = []
    net.set_handler("b", lambda msg: delivered.append(msg))
    net.set_endpoint_up("b", False)
    net.send("a", "b", "lost")
    env.run()
    assert delivered == []
    assert net.messages_dropped == 1


def test_transmission_delay_scales_with_size():
    # 1 MB over 8 Mbit/s takes 1 second.
    env, net = make_net(bandwidth_bps=8e6)
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append(env.now))
    net.send("a", "b", "big", size_bytes=1_000_000)
    env.run()
    assert arrivals[0] == pytest.approx(ms(25) + 1_000_000_000, rel=1e-6)


def test_serialization_queueing_back_to_back():
    env, net = make_net(bandwidth_bps=8e6)  # 1 byte/us
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append((msg.payload, env.now)))
    net.send("a", "b", "first", size_bytes=1000)
    net.send("a", "b", "second", size_bytes=1000)
    env.run()
    # Second message waits for the first to clock onto the wire.
    first = dict(arrivals)["first"]
    second = dict(arrivals)["second"]
    assert second - first == pytest.approx(us(1000), rel=1e-6)


def test_injected_delay_adds_latency():
    env, net = make_net()
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append(env.now))
    net.inject_delay_between_regions(ms(100))
    net.send("a", "b", "slow", size_bytes=10)
    env.run()
    assert arrivals[0] >= ms(125)
    assert net.rtt_ns("a", "b") == 2 * ms(125)


def test_local_delivery_is_instant():
    env, net = make_net()
    arrivals = []
    net.set_handler("a", lambda msg: arrivals.append(env.now))
    net.send("a", "a", "self")
    env.run()
    assert arrivals == [0]


def test_duplicate_endpoint_rejected():
    env, net = make_net()
    with pytest.raises(SimulationError):
        net.add_endpoint("a", "east")


def test_unknown_endpoint_rejected():
    env, net = make_net()
    with pytest.raises(NetworkError):
        net.send("a", "nope", "x")
    with pytest.raises(NetworkError):
        net.endpoint("nope")


def test_late_rpc_reply_after_timeout_is_ignored():
    env, net = make_net()

    def slow_server(msg):
        def responder():
            yield env.timeout(ms(100))
            msg.payload.reply("late")
        env.process(responder())

    net.set_handler("b", slow_server)
    outcomes = []

    # The deadline already fired when the late reply lands, so the reply
    # must withdraw nothing: defers made after the timeout all run.
    reused = []

    def client():
        try:
            value = yield net.request("a", "b", "x", timeout_ns=ms(30))
            outcomes.append(("ok", value))
        except NetworkError:
            outcomes.append(("timeout", env.now))
            for index in range(8):
                env.defer(ms(200), reused.append, index)

    env.process(client())
    env.run()
    assert outcomes == [("timeout", ms(30))]
    assert reused == list(range(8))


def test_reply_in_the_deadline_tick_loses_to_the_deadline():
    # The deadline is armed at send time, so inside its tick it runs before
    # a reply delivery scheduled later: the caller sees the timeout.
    env, net = make_net()
    net.set_link("a", "b", latency_ns=ms(25), bandwidth_bps=0)  # rtt = 50 ms
    net.set_handler("b", lambda msg: msg.payload.reply("pong"))
    outcomes = []

    def client():
        try:
            outcomes.append((yield net.request("a", "b", "x", timeout_ns=ms(50))))
        except NetworkError as exc:
            outcomes.append((str(exc), env.now))

    env.process(client())
    env.run()
    assert outcomes == [("RPC to b timed out", ms(50))]
    assert net.messages_delivered == 2  # the reply did arrive, and was ignored


@pytest.mark.parametrize("answer", ["reply", "fail"])
def test_completed_rpc_leaves_no_deadline_behind(answer):
    env, net = make_net()
    if answer == "reply":
        net.set_handler("b", lambda msg: msg.payload.reply("pong"))
    else:
        net.set_handler("b", lambda msg: msg.payload.fail(NetworkError("refused")))
    outcomes = []

    def client():
        try:
            outcomes.append((yield net.request("a", "b", "x", timeout_ns=seconds(2))))
        except NetworkError as exc:
            outcomes.append(str(exc))
        assert not env._buckets and not env._armed  # ended with the request
        outcomes.append(env.now)

    env.process(client())
    env.run()
    assert outcomes[0] == ("pong" if answer == "reply" else "refused")
    assert ms(50) <= outcomes[1] < ms(50.1)
    assert env.now == seconds(2)  # the bare timestamp is still walked


def test_timed_round_trips_retain_only_in_flight_entries():
    # Counted, not timed: 10 000 answered RPCs under an hour-long deadline
    # must not leave 10 000 timers in the calendar queue or the armed
    # ledger. Deadlines are armed, never bucketed, so the ledger is where
    # a leak would show; the in-flight request's own deadline is its one
    # entry, sampled while the request waits.
    env, net = make_net()
    net.set_handler("b", lambda msg: msg.payload.reply(msg.payload.body))
    high_water = [0, 0, 0]

    def client():
        for index in range(10_000):
            reply = net.request("a", "b", index, timeout_ns=seconds(3600))
            armed = sum(len(entries) for entries in env._armed.values())
            high_water[2] = max(high_water[2], armed)
            value = yield reply
            assert value == index
            entries = sum(len(bucket) for bucket in env._buckets.values())
            high_water[0] = max(high_water[0], entries)
            high_water[1] = max(high_water[1], len(env._buckets))

    env.run(until=env.process(client()))
    assert high_water == [0, 0, 1]


def test_two_sends_landing_at_one_instant_are_both_delivered_in_order():
    # Zero transmission time puts back-to-back sends on one link at the
    # same delivery instant; they stay two queue entries.
    env, net = make_net()
    net.set_link("a", "b", latency_ns=ms(25), bandwidth_bps=0)
    arrivals = []
    net.set_handler("b", lambda msg: arrivals.append((msg.payload, env.now)))
    net.send("a", "b", "first")
    net.send("a", "b", "second")
    env.run()
    assert arrivals == [("first", ms(25)), ("second", ms(25))]
    assert env.events_scheduled == 2
