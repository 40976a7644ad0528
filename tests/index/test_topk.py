"""Deterministic top-k: the ``(-score, id)`` total order every
retrieval path (brute GEMM, ADC shortlist, exact re-rank) must agree
on.  Ties are the whole point — argpartition alone breaks them by
pivot luck, which would make the brute and index paths disagree on
identical scores."""

import numpy as np
import pytest

from repro.index import deterministic_topk, deterministic_topk_rows
from repro.index.topk import padded_topk_rows


def reference_topk(scores, k):
    """The obviously-correct full sort."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return np.asarray(order[:k], dtype=np.int64)


class TestDeterministicTopk:
    def test_matches_full_sort_on_random_scores(self, rng):
        for _ in range(20):
            scores = rng.standard_normal(50).astype(np.float32)
            k = int(rng.integers(1, 12))
            np.testing.assert_array_equal(
                deterministic_topk(scores, k), reference_topk(scores, k))

    def test_ties_break_by_ascending_index(self):
        scores = np.asarray([1.0, 3.0, 3.0, 2.0, 3.0], dtype=np.float32)
        np.testing.assert_array_equal(deterministic_topk(scores, 3),
                                      [1, 2, 4])

    def test_all_tied_returns_first_k_indices(self):
        scores = np.full(10, 0.5, dtype=np.float32)
        np.testing.assert_array_equal(deterministic_topk(scores, 4),
                                      [0, 1, 2, 3])

    def test_tie_straddling_the_kth_position(self):
        """The tie class of the kth value must be re-sorted, not taken
        in partition order."""
        scores = np.asarray([2.0, 1.0, 1.0, 1.0, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(deterministic_topk(scores, 2),
                                      [0, 1])

    def test_k_at_least_n_is_a_full_sort(self):
        scores = np.asarray([0.1, 0.3, 0.2], dtype=np.float32)
        for k in (3, 5):
            np.testing.assert_array_equal(deterministic_topk(scores, k),
                                          [1, 2, 0])

    def test_k_zero_is_empty(self):
        out = deterministic_topk(np.asarray([1.0, 2.0]), 0)
        assert out.shape == (0,)

    def test_duplicated_input_is_deterministic_across_calls(self, rng):
        scores = rng.standard_normal(64).astype(np.float32)
        scores[10:20] = scores[30]  # a fat tie class
        first = deterministic_topk(scores, 15)
        for _ in range(5):
            np.testing.assert_array_equal(
                deterministic_topk(scores.copy(), 15), first)


class TestRows:
    def test_rows_match_per_row_calls(self, rng):
        scores = rng.standard_normal((8, 30)).astype(np.float32)
        scores[:, 5] = scores[:, 17]  # plant ties in every row
        rows = deterministic_topk_rows(scores, 6)
        assert rows.shape == (8, 6)
        for r in range(8):
            np.testing.assert_array_equal(rows[r],
                                          deterministic_topk(scores[r], 6))

    def test_empty_batch(self):
        out = deterministic_topk_rows(np.zeros((0, 5), dtype=np.float32), 3)
        assert out.shape == (0, 3)


class TestIncomparableValues:
    """NaN is never selected: a row with fewer than k comparable values
    has every comparable index, in order, and no more."""

    @pytest.mark.parametrize("scores,k,want", [
        ([1.0, np.nan, np.nan], 2, [0]),
        ([1.0, np.nan, np.nan], 3, [0]),
        ([np.nan, 2.0, np.nan, 1.0], 3, [1, 3]),
        ([np.nan, np.nan], 1, []),
        ([np.nan, 2.0, 5.0, 1.0], 2, [2, 1]),
    ])
    def test_comparable_values_in_order(self, scores, k, want):
        np.testing.assert_array_equal(
            deterministic_topk(np.asarray(scores), k), want)

    def test_rows_name_the_short_row(self):
        scores = np.zeros((5, 4))
        scores[3, 1:] = np.nan
        with pytest.raises(ValueError, match="row 3 has 1 comparable "
                                             "values, fewer than k = 2"):
            deterministic_topk_rows(scores, 2)
        # a short call (under four rows) names the row the same way
        with pytest.raises(ValueError, match="row 1 has 1 comparable"):
            deterministic_topk_rows(scores[2:4], 2)

    def test_padded_rows_keep_what_the_row_has(self):
        scores = np.array([[0.5, np.nan, 0.7, 0.1],
                           [np.nan, np.nan, 0.2, np.nan],
                           [np.nan] * 4], dtype=np.float32)
        ids, values = padded_topk_rows(scores, 3)
        np.testing.assert_array_equal(ids, [[2, 0, 3], [2, -1, -1],
                                            [-1, -1, -1]])
        np.testing.assert_array_equal(
            values, np.array([[0.7, 0.5, 0.1], [0.2, -np.inf, -np.inf],
                              [-np.inf] * 3], dtype=np.float32))
        assert values.dtype == np.float32
