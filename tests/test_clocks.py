"""Unit tests for the clock substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import (
    ClockSyncConfig,
    ClockSyncDaemon,
    GClockSource,
    GlobalTimeDevice,
    PhysicalClock,
)
from repro.errors import ClockError
from repro.sim import Environment, ms, seconds, us
from repro.sim.rand import RandomStreams


def make_gclock(env, name="node1", analytic=True, max_drift_ppm=200.0,
                initial_offset_ns=0):
    streams = RandomStreams(seed=7)
    clock = PhysicalClock(env, name, streams.stream(f"clock:{name}"),
                          max_drift_ppm=max_drift_ppm,
                          initial_offset_ns=initial_offset_ns)
    device = GlobalTimeDevice(env, region="east", rng=streams.stream("device"))
    sync = ClockSyncDaemon(env, clock, device,
                           ClockSyncConfig(analytic=analytic), name=name)
    return GClockSource(env, clock, sync), clock, device, sync


class TestPhysicalClock:
    def test_reads_advance_with_true_time(self):
        env = Environment()
        clock = PhysicalClock(env, "n", RandomStreams(1).stream("c"))
        first = clock.read()
        env.run(until=seconds(1))
        second = clock.read()
        assert second > first
        # Drift bounded at 200 PPM: within 200 us over one second.
        assert abs((second - first) - seconds(1)) <= us(201)

    def test_offset_bounded_by_drift(self):
        env = Environment()
        clock = PhysicalClock(env, "n", RandomStreams(2).stream("c"),
                              max_drift_ppm=100.0)
        env.run(until=seconds(10))
        assert abs(clock.offset_ns()) <= round(seconds(10) * 100e-6) + 1

    def test_step_injects_jump(self):
        env = Environment()
        clock = PhysicalClock(env, "n", RandomStreams(3).stream("c"))
        clock.step(ms(5))
        assert clock.offset_ns() == pytest.approx(ms(5), abs=100)


class TestTimeDevice:
    def test_query_accurate_to_true_time(self):
        env = Environment()
        device = GlobalTimeDevice(env, "east", accuracy_ns=50)
        env.run(until=ms(3))
        assert abs(device.query() - env.now) <= 50

    def test_failed_device_raises(self):
        env = Environment()
        device = GlobalTimeDevice(env, "east")
        device.fail()
        with pytest.raises(ClockError):
            device.query()
        device.recover()
        assert isinstance(device.query(), int)


class TestSyncDaemon:
    def test_analytic_error_bound_is_tight(self):
        env = Environment()
        source, _clock, _device, sync = make_gclock(env)
        env.run(until=seconds(1))
        # T_err = 60us RTT + <=200ppm * <=1ms elapsed ~= 60.2us.
        assert sync.error_bound_ns() <= us(61)
        assert sync.error_bound_ns() >= us(60)

    def test_analytic_clock_stays_within_bound_of_true_time(self):
        env = Environment()
        source, clock, _device, sync = make_gclock(env)
        for _ in range(50):
            env.run(until=env.now + ms(17))
            assert abs(clock.offset_ns()) <= sync.error_bound_ns()

    def test_event_driven_mode_matches_analytic_bound(self):
        env = Environment()
        source, clock, _device, sync = make_gclock(env, analytic=False)
        sync.start()
        env.run(until=ms(50))
        assert sync.sync_count >= 40
        assert sync.error_bound_ns() <= us(61)
        assert abs(clock.offset_ns()) <= sync.error_bound_ns()

    def test_device_failure_grows_error_bound(self):
        env = Environment()
        source, _clock, device, sync = make_gclock(env)
        env.run(until=ms(10))
        device.fail()
        baseline = sync.error_bound_ns()
        env.run(until=env.now + seconds(10))
        grown = sync.error_bound_ns()
        assert grown > baseline
        # 200 PPM over 10 s is 2 ms of drift allowance.
        assert grown >= ms(2)

    def test_recovery_restores_health(self):
        env = Environment()
        source, _clock, device, sync = make_gclock(env)
        device.fail()
        env.run(until=seconds(30))
        assert sync.error_bound_ns() >= ms(6)  # 30 s unsynced at 200 PPM
        device.recover()
        env.run(until=env.now + ms(5))
        assert sync.error_bound_ns() <= us(61)


class TestReadIndependence:
    """A reading depends on the instant, not on who read the clock before:
    in analytic mode a read applies the latest sync lazily, so a clock
    whose anchor or drift came from the read instant (or from one RNG
    draw per applied sync) would let one node's probe traffic move
    another transaction's timestamps."""

    @staticmethod
    def probe_readings(probes, extra_reads):
        env = Environment()
        source, _clock, _device, _sync = make_gclock(env)
        readings = []
        instants = sorted({(at, True) for at in probes}
                          | {(at, False) for at in extra_reads})
        for at, is_probe in instants:
            if at > env.now:
                env.run(until=at)
            reading = (source.read(), source.bounds())
            if is_probe:
                readings.append((at, reading))
        return readings

    @settings(max_examples=60, deadline=None)
    @given(probes=st.lists(st.integers(0, ms(12)), min_size=1, max_size=8),
           extra_reads=st.lists(st.integers(0, ms(12)), max_size=20))
    def test_extra_reads_leave_later_readings_unchanged(self, probes,
                                                        extra_reads):
        assert self.probe_readings(probes, extra_reads) \
            == self.probe_readings(probes, [])


class TestGClockSource:
    def test_timestamp_is_upper_bound_on_true_time(self):
        env = Environment()
        source, _clock, _device, _sync = make_gclock(env)
        env.run(until=ms(100))
        stamp = source.timestamp()
        assert stamp.ts >= env.now  # Eq. 1: T_clock + T_err bounds true time
        assert stamp.err > 0

    def test_bounds_contain_true_time(self):
        env = Environment()
        source, _clock, _device, _sync = make_gclock(env)
        for _ in range(20):
            env.run(until=env.now + ms(13))
            earliest, latest = source.bounds()
            assert earliest <= env.now <= latest

    def test_wait_until_after_outlasts_the_timestamp(self):
        env = Environment()
        source, _clock, _device, _sync = make_gclock(env)

        def proc():
            stamp = source.timestamp()
            reading = yield from source.wait_until_after(stamp.ts)
            return stamp, reading

        stamp, reading = env.run(until=env.process(proc()))
        assert reading > stamp.ts
        # The wait is roughly the error bound: well under a millisecond.
        assert env.now <= ms(1)

    def test_commit_wait_spans_true_time_of_timestamp(self):
        """After wait_until_after(ts), true time must exceed ts - err...
        in fact the local clock exceeding ts implies true time > ts - err,
        which is what external consistency needs."""
        env = Environment()
        source, _clock, _device, _sync = make_gclock(env)
        env.run(until=ms(5))

        def proc():
            stamp = source.timestamp()
            yield from source.wait_until_after(stamp.ts)
            return stamp

        stamp = env.run(until=env.process(proc()))
        assert env.now > stamp.ts - stamp.err

    def test_timestamp_error_tracks_sync(self):
        env = Environment()
        source, _clock, device, _sync = make_gclock(env)
        assert source.timestamp().err <= us(61)
        device.fail()
        env.run(until=seconds(30))
        assert source.timestamp().err >= ms(6)
