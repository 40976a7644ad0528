"""Fixed-bucket histograms: exactness, merging, quantiles, round-trip."""

from __future__ import annotations

import math

import pytest

from repro.obs.hist import DEFAULT_BOUNDS, BucketHistogram, log_bounds


class TestLogBounds:
    def test_geometric_spacing_covers_range(self):
        bounds = log_bounds(1.0, 1000.0, per_decade=10)
        assert bounds[0] == 1.0
        assert bounds[-1] >= 1000.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(abs(r - 10 ** 0.1) < 1e-9 for r in ratios)

    def test_default_latency_layout_spans_100us_to_60s(self):
        # the one layout spans 1e-6 .. 1e7; from 0.1 (ms) up, its edges
        # are the former 0.1 ms .. 60 s latency layout's
        assert len(DEFAULT_BOUNDS) == 157
        assert DEFAULT_BOUNDS[0] == pytest.approx(1e-6)
        assert DEFAULT_BOUNDS[-1] == pytest.approx(1e7)
        old = log_bounds(0.1, 60_000.0, per_decade=12)
        start = DEFAULT_BOUNDS.index(min(DEFAULT_BOUNDS,
                                         key=lambda b: abs(b - 0.1)))
        for mine, theirs in zip(DEFAULT_BOUNDS[start:], old):
            assert mine == pytest.approx(theirs, rel=1e-14)
        assert len(DEFAULT_BOUNDS[start:]) > len(old)

    @pytest.mark.parametrize("lo,hi,per", [(0.0, 1.0, 12), (1.0, 1.0, 12),
                                           (2.0, 1.0, 12), (1.0, 10.0, 0)])
    def test_invalid_layouts_rejected(self, lo, hi, per):
        with pytest.raises(ValueError):
            log_bounds(lo, hi, per)


class TestBucketHistogram:
    def test_counts_are_exact_and_total(self):
        hist = BucketHistogram([1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1, 1]  # last slot = +Inf overflow
        assert hist.count == 5
        assert hist.sum == pytest.approx(560.5)
        assert hist.min == 0.5 and hist.max == 500.0

    def test_boundary_value_lands_in_its_bucket(self):
        # bisect_left: a value exactly on a bound belongs to that
        # bucket (le semantics, matching Prometheus)
        hist = BucketHistogram([1.0, 10.0])
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]

    def test_cumulative_ends_at_inf_with_total(self):
        hist = BucketHistogram([1.0, 10.0])
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        series = hist.cumulative()
        assert series == [(1.0, 1), (10.0, 2), (math.inf, 3)]
        # cumulative counts are monotone non-decreasing by construction
        counts = [count for _, count in series]
        assert counts == sorted(counts)

    def test_merge_adds_bucketwise(self):
        a, b = BucketHistogram([1.0, 10.0]), BucketHistogram([1.0, 10.0])
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5 and a.max == 50.0

    def test_merge_requires_identical_bounds(self):
        with pytest.raises(ValueError):
            BucketHistogram([1.0]).merge(BucketHistogram([2.0]))

    def test_quantile_interpolates_and_clamps(self):
        hist = BucketHistogram([10.0, 20.0, 30.0])
        for value in (12.0, 14.0, 26.0, 28.0):
            hist.observe(value)
        assert hist.quantile(0.0) == pytest.approx(12.0)  # clamped to min
        assert hist.quantile(100.0) == pytest.approx(28.0)  # clamped to max
        assert 10.0 <= hist.quantile(50.0) <= 20.0

    @pytest.mark.parametrize("values", [
        (0.0, 3.0), (-2.5, 0.0, 4.0), (5e-7, 1e-3), (1.0, 2e7),
        (0.0, -2.5, 5e-7, 2e7)])
    def test_default_layout_clamps_out_of_range_values(self, values):
        hist = BucketHistogram()
        for value in values:
            hist.observe(value)
        assert hist.count == len(values)
        assert hist.sum == sum(values)
        assert hist.min == min(values) and hist.max == max(values)
        for q in (0.0, 1.0, 50.0, 95.0, 99.0, 100.0):
            assert min(values) <= hist.quantile(q) <= max(values)
        # at or below the first edge: the first slot; above the last:
        # the +Inf overflow slot
        assert hist.counts[0] == sum(1 for v in values if v <= 1e-6)
        assert hist.counts[-1] == sum(1 for v in values if v > 1e7)

    def test_quantile_in_overflow_returns_max(self):
        hist = BucketHistogram([1.0])
        hist.observe(99.0)
        assert hist.quantile(99.0) == 99.0

    def test_empty_histogram(self):
        hist = BucketHistogram([1.0])
        assert hist.quantile(50.0) == 0.0
        assert hist.mean == 0.0
        assert hist.to_dict()["min"] == 0.0

    def test_dict_round_trip(self):
        hist = BucketHistogram([1.0, 10.0])
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        clone = BucketHistogram.from_dict(hist.to_dict())
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.sum == hist.sum
        assert clone.quantile(50.0) == hist.quantile(50.0)

    @pytest.mark.parametrize("bounds", [[], [2.0, 1.0], [1.0, 1.0]])
    def test_invalid_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            BucketHistogram(bounds)
