"""Slices, slowdowns and the arithmetic that takes the box out."""

import numpy as np
import pytest

import driver
import pace


def test_quiet_slices_are_the_smallest_slowdowns_quietest_first():
    slowdowns = [1.4, 1.0, 1.2, 1.1, 1.5, 1.3]
    assert pace.quiet_slices(slowdowns) == [1, 3, 2]
    assert pace.quiet_slices(slowdowns, share=1 / 3) == [1, 3]
    assert pace.quiet_slices([1.3], share=0.1) == [0]
    with pytest.raises(ValueError):
        pace.quiet_slices([])


def test_steady_divides_times_and_multiplies_rates_by_the_slowdown():
    # a program that takes 10 ms on the quiet box, on a box that is
    # 1.0, 1.5 and 2.0 times slower in three slices
    slowdowns = [1.0, 1.5, 2.0]
    times = [10.0, 15.0, 20.0]
    rates = [100.0, 100.0 / 1.5, 50.0]
    assert pace.steady(times, slowdowns, share=1.0) == pytest.approx(10.0)
    assert pace.steady(rates, slowdowns, rate=True,
                       share=1.0) == pytest.approx(100.0)
    # the quiet third is slice 0 alone
    assert pace.steady([11.0, 99.0, 99.0], slowdowns,
                       share=1 / 3) == pytest.approx(11.0)


def test_the_choice_of_slices_never_looks_at_the_values():
    slowdowns = [1.0, 1.0, 1.0, 1.3, 1.3, 1.3]
    fast = pace.steady([5.0, 5.0, 5.0, 1.0, 1.0, 1.0], slowdowns)
    slow = pace.steady([9.0, 9.0, 9.0, 1.0, 1.0, 1.0], slowdowns)
    assert (fast, slow) == (5.0, 9.0)


def test_samples_carry_their_slice_and_empty_slices_are_never_kept():
    series = pace.Series()
    series.extend([4.0, 6.0], 2)     # slice 0 and 1 hold nothing
    series.extend([30.0, 30.0, 30.0], 3)
    series.add(8.0, 4)
    slowdowns = [0.5, 0.5, 2.0, 3.0, 4.0]
    # of the three slices with samples the quietest is slice 2
    assert series.steady(slowdowns, share=1 / 3) == pytest.approx(2.5)
    assert series.steady(slowdowns, share=1.0) == pytest.approx(6.5)
    assert series.raw() == 19.0


def test_a_slice_is_as_slow_as_the_ticks_on_and_near_it(monkeypatch):
    ticks = iter([1.0, 1.2, 2.0])
    monkeypatch.setattr(pace.Reference, "slowdown",
                        lambda self, calls=5, every_cpu=False: next(ticks))
    pacer = pace.Pacer()
    assert pacer.tick() == -1 and pacer.current == 0
    assert pacer.tick() == 0 and pacer.current == 1
    assert pacer.tick() == 1
    assert [slowdown for _, slowdown in pacer.ticks] == [1.0, 1.2, 2.0]
    # a slice counts its own two ticks and any within a second of it
    pacer.ticks = [(0.0, 1.0), (10.0, 1.2), (10.5, 1.4), (11.6, 1.6),
                   (30.0, 3.0)]
    assert pacer.slowdowns == pytest.approx([1.2, 1.3, 1.4, 2.3])


def test_the_reference_kernel_times_itself_on_every_cpu():
    import os
    allowed = os.sched_getaffinity(0)
    reference = pace.Reference()
    assert 0.0 < reference.once() < 1.0
    assert reference.slowdown(calls=3, every_cpu=True) > 0.0
    assert os.sched_getaffinity(0) == allowed


def test_bursts_join_into_one_phase_in_the_order_sent():
    def burst(first_id, count, at):
        times = at + np.arange(count, dtype=np.float64)
        return driver.PhaseResult(
            "lo", [(first_id + i, 1) for i in range(count)], first_id, times,
            times + 0.5, times + 1.0, [{"id": first_id + i}
                                       for i in range(count)], at, at + count)

    phase = driver.join("lo", [burst(0, 2, 10.0), burst(2, 3, 20.0)])
    assert [q[0] for q in phase.queries] == [0, 1, 2, 3, 4]
    assert [r["id"] for r in phase.responses] == [0, 1, 2, 3, 4]
    assert phase.started_at == 10.0 and phase.ended_at == 23.0
    assert np.allclose(phase.latency_ms, 1000.0)
    assert np.allclose(phase.lag_ms, 500.0)
