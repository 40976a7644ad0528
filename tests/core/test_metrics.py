"""Metric tests: Hits@k, MRR, efficiency report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (EfficiencyReport, RankingResult,
                                _first_relevant_ranks, evaluate_ranking,
                                hits_at_k, mean_reciprocal_rank)


@pytest.fixture()
def scores():
    # row 0: gold col 0 ranked 1st; row 1: gold col 2 ranked 2nd
    return np.asarray([[0.9, 0.1, 0.0],
                       [0.1, 0.9, 0.5]], dtype=np.float32)


class TestHitsAtK:
    def test_hand_computed(self, scores):
        gold = [[0], [2]]
        assert hits_at_k(scores, gold, 1) == pytest.approx(50.0)
        assert hits_at_k(scores, gold, 2) == pytest.approx(100.0)

    def test_multiple_gold_uses_best(self, scores):
        gold = [[0, 2], [0, 1]]
        assert hits_at_k(scores, gold, 1) == pytest.approx(100.0)

    def test_empty_gold_raises(self, scores):
        with pytest.raises(ValueError):
            hits_at_k(scores, [[0], []], 1)

    def test_misaligned_raises(self, scores):
        with pytest.raises(ValueError):
            hits_at_k(scores, [[0]], 1)


class TestMRR:
    def test_hand_computed(self, scores):
        gold = [[0], [2]]
        assert mean_reciprocal_rank(scores, gold) == pytest.approx(
            (1.0 + 0.5) / 2)

    def test_bounds(self, scores):
        value = mean_reciprocal_rank(scores, [[2], [0]])
        assert 0.0 < value <= 1.0


class TestEvaluateRanking:
    def test_bundle_consistency(self, scores):
        gold = [[0], [2]]
        result = evaluate_ranking(scores, gold)
        assert result.hits1 == hits_at_k(scores, gold, 1)
        assert result.hits3 == hits_at_k(scores, gold, 3)
        assert result.mrr == pytest.approx(mean_reciprocal_rank(scores, gold))
        assert "H@1" in result.as_dict()
        assert "H@1" in str(result)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(2, 10), st.integers(0, 10_000))
def test_property_hits_monotone_in_k(rows, cols, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((rows, cols))
    gold = [[int(rng.integers(cols))] for _ in range(rows)]
    values = [hits_at_k(scores, gold, k) for k in range(1, cols + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(100.0)


def argsort_ranks(scores, gold):
    """The oracle ``_first_relevant_ranks`` replaced: a full stable
    descending sort per row, then the first gold column in it."""
    ranks = np.zeros(len(scores), dtype=np.int64)
    for i, (row, positives) in enumerate(zip(scores, gold)):
        order = np.argsort(-row, kind="stable")
        ranks[i] = int(np.isin(order, np.asarray(positives)).argmax()) + 1
    return ranks


@st.composite
def tied_scores_and_gold(draw):
    """Score matrices built to collide: values come from a handful of
    levels (so rows are mostly duplicates), whole columns can be
    ``-inf`` (an index-backed row off its shortlist), and each row has
    one to four gold columns — some planted on a tie with a non-gold
    column on either side of them."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12))
    levels = draw(st.lists(
        st.floats(-4.0, 4.0, width=32) | st.just(float("-inf")),
        min_size=1, max_size=4))
    scores = np.asarray(draw(st.lists(
        st.lists(st.sampled_from(levels), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)), dtype=np.float32)
    for column in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        scores[:, column] = -np.inf
    gold = [draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=4))
            for _ in range(rows)]
    return scores, gold


@settings(max_examples=300, deadline=None)
@given(tied_scores_and_gold())
def test_property_counting_ranks_equal_the_argsort_oracle(case):
    scores, gold = case
    assert np.array_equal(_first_relevant_ranks(scores, gold),
                          argsort_ranks(scores, gold))


def test_counting_ranks_hand_computed_ties():
    scores = np.asarray([[0.5, 0.9, 0.5, 0.5, -np.inf],
                         [-np.inf, -np.inf, -np.inf, -np.inf, -np.inf]],
                        dtype=np.float32)
    # row 0: best gold is column 2 (0.5, the lower of the tied golds 2
    # and 3): column 1 beats it, column 0 ties it from an earlier place
    # row 1: everything ties at -inf; gold column 3 has three before it
    gold = [[3, 2, 4], [3]]
    assert _first_relevant_ranks(scores, gold).tolist() == [3, 4]
    assert argsort_ranks(scores, gold).tolist() == [3, 4]


class TestEfficiencyReport:
    def test_conversions_and_str(self):
        report = EfficiencyReport(seconds_per_epoch=1.5,
                                  peak_memory_bytes=2 * 1024**3)
        assert report.peak_memory_gb == pytest.approx(2.0)
        assert "T=1.50s" in str(report)
        assert report.scored_pairs_per_epoch == 0.0  # counts default to 0

    def test_scored_pairs_adds_enumerated_and_labelled(self):
        report = EfficiencyReport(seconds_per_epoch=0.1, peak_memory_bytes=0,
                                  pairs_per_epoch=7790.0,
                                  label_pairs_per_epoch=7700.0,
                                  steps_per_epoch=28.6)
        assert report.scored_pairs_per_epoch == 15490.0
