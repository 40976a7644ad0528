"""Circuit-breaker state machine, driven by a fake clock the way the
shard router drives it: admit with ``allows_call``, then record one
outcome per admitted call."""

import pytest

from repro.obs import registry
from repro.serve import (STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                         CircuitBreaker)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(clock, **overrides):
    settings = dict(window=4, failure_threshold=0.5, min_calls=2,
                    cooldown=10.0)
    settings.update(overrides)
    return CircuitBreaker("enc", clock=clock, **settings)


def fail(breaker, times=2):
    for _ in range(times):
        assert breaker.allows_call()
        breaker.record_failure()


def succeed(breaker):
    assert breaker.allows_call()
    breaker.record_success()


class TestClosedToOpen:
    def test_starts_closed_and_passes_calls(self):
        breaker = make_breaker(FakeClock())
        assert breaker.state() == STATE_CLOSED
        succeed(breaker)
        assert breaker.allows_call() and breaker.allows_call()

    def test_stays_closed_below_min_calls(self):
        breaker = make_breaker(FakeClock(), min_calls=3)
        fail(breaker)
        assert breaker.state() == STATE_CLOSED

    def test_opens_at_failure_threshold(self):
        breaker = make_breaker(FakeClock())
        fail(breaker)
        assert breaker.state() == STATE_OPEN
        assert registry().counter("serve.breaker.enc.open_total").value == 1

    def test_successes_dilute_the_window(self):
        breaker = make_breaker(FakeClock(), window=4, min_calls=4)
        for _ in range(3):
            succeed(breaker)
        fail(breaker, times=1)
        # one failure in a window of four: 25% < 50% threshold
        assert breaker.state() == STATE_CLOSED


class TestOpen:
    def test_rejects_without_calling(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        fail(breaker)
        clock.advance(9.9)  # still inside the cooldown
        assert not breaker.allows_call()
        assert not breaker.allows_call()
        assert registry().counter(
            "serve.breaker.enc.rejected_total").value == 2

    def test_state_gauge_tracks_transitions(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        gauge = registry().gauge("serve.breaker.enc.state")
        assert gauge.value == 0  # closed
        fail(breaker)
        assert gauge.value == 2  # open
        clock.advance(10.0)
        assert breaker.state() == STATE_HALF_OPEN
        assert gauge.value == 1  # half-open


class TestHalfOpen:
    def trip(self, clock, **overrides):
        breaker = make_breaker(clock, **overrides)
        fail(breaker)
        clock.advance(10.0)
        return breaker

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.trip(clock)
        succeed(breaker)
        assert breaker.state() == STATE_CLOSED
        # the window was cleared: one new failure cannot instantly re-open
        fail(breaker, times=1)
        assert breaker.state() == STATE_CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self.trip(clock)
        fail(breaker, times=1)
        assert breaker.state() == STATE_OPEN
        clock.advance(9.0)  # cooldown restarted: not yet probing again
        assert breaker.state() == STATE_OPEN
        clock.advance(1.0)
        assert breaker.state() == STATE_HALF_OPEN

    def test_single_probe_slot(self):
        clock = FakeClock()
        breaker = self.trip(clock)
        assert breaker.allows_call()  # probe admitted and now in flight
        assert not breaker.allows_call()  # the second caller is refused
        breaker.record_success()  # probe returns healthy
        assert breaker.state() == STATE_CLOSED
        assert breaker.allows_call()

    def test_a_failed_probe_frees_the_slot_for_the_next_cooldown(self):
        clock = FakeClock()
        breaker = self.trip(clock)
        assert breaker.allows_call()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allows_call()
        assert not breaker.allows_call()


class TestAdminControls:
    def test_force_open_and_reset(self):
        breaker = make_breaker(FakeClock())
        breaker.force_open()
        assert breaker.state() == STATE_OPEN
        assert not breaker.allows_call()
        breaker.reset()
        assert breaker.state() == STATE_CLOSED
        succeed(breaker)

    @pytest.mark.parametrize("kwargs", [
        dict(window=0), dict(failure_threshold=0.0),
        dict(failure_threshold=1.5), dict(min_calls=0), dict(cooldown=0.0),
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_breaker(FakeClock(), **kwargs)


class TestClockIsolation:
    """The clock is per *instance* — two breakers on independent fake
    clocks must never see each other's time (the shard router runs one
    breaker per shard, and its tests drive them separately)."""

    def trip(self, breaker):
        fail(breaker)
        assert breaker.state() == STATE_OPEN

    def test_two_breakers_on_independent_clocks(self):
        clock_a, clock_b = FakeClock(), FakeClock()
        a = CircuitBreaker("shard0", clock=clock_a, window=4,
                           failure_threshold=0.5, min_calls=2,
                           cooldown=10.0)
        b = CircuitBreaker("shard1", clock=clock_b, window=4,
                           failure_threshold=0.5, min_calls=2,
                           cooldown=10.0)
        self.trip(a)
        self.trip(b)
        # advance only a's clock past the cooldown
        clock_a.now += 11.0
        assert a.allows_call(), "a's cooldown elapsed on a's clock"
        assert not b.allows_call(), \
            "b must not inherit a's time — clocks are per instance"
        # and the probe bookkeeping stays separate too
        a.record_success()
        assert a.state() == STATE_CLOSED
        assert b.state() == STATE_OPEN

    def test_async_records_share_no_state_across_instances(self):
        """The router's accounting path (allows_call + record_*)
        touches only the instance it is called on."""
        clock = FakeClock()
        first = CircuitBreaker("shardA", clock=clock, window=4,
                               failure_threshold=0.5, min_calls=2,
                               cooldown=10.0)
        second = CircuitBreaker("shardB", clock=clock, window=4,
                                failure_threshold=0.5, min_calls=2,
                                cooldown=10.0)
        for _ in range(2):
            assert first.allows_call()
            first.record_failure()
        assert first.state() == STATE_OPEN
        assert not first.allows_call()
        assert second.state() == STATE_CLOSED
        assert second.allows_call()
