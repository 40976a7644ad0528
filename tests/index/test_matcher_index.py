"""Matcher ↔ index integration: the exactness and determinism seams.

``CrossEM.score`` stays the golden reference; this suite pins the two
things the index route must preserve around it — deterministic top-k
under score ties (duplicate images score bit-identically, so pivot-luck
selection would flap between runs and between paths), and matching-set
equality when the index probes exhaustively."""

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.index import IVFPQConfig


@pytest.fixture(scope="module")
def tied_matcher(tiny_bundle, tiny_dataset):
    """A fitted matcher whose repository contains duplicated images —
    every duplicate pair produces exact score ties for every vertex."""
    images = list(tiny_dataset.images) + list(tiny_dataset.images[:6])
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                 seed=11))
    matcher.fit(tiny_dataset.graph, images, tiny_dataset.entity_vertices)
    return matcher


class TestDeterministicTopKUnderTies:
    def test_planted_ties_break_by_image_position(self, tied_matcher,
                                                  monkeypatch):
        """Exact ties (shadowed score matrix — duplicated *images* only
        tie up to BLAS batch blocking) resolve toward the earlier
        repository position in both score_topk and match_pairs."""
        n = len(tied_matcher.images)
        row = np.full(n, -1.0, dtype=np.float32)
        row[[0, 1, 3, 6]] = 5.0  # a four-way tie for the top
        row[2] = 4.0
        crafted = np.tile(row, (2, 1))
        monkeypatch.setattr(tied_matcher, "score",
                            lambda vertex_ids=None: crafted)
        vertices = tied_matcher.vertex_ids[:2]
        ids, scores = tied_matcher.score_topk(vertices, top_k=5)
        np.testing.assert_array_equal(ids, np.tile([0, 1, 3, 6, 2], (2, 1)))
        np.testing.assert_array_equal(scores,
                                      np.tile([5, 5, 5, 5, 4], (2, 1)))
        pairs = tied_matcher.match_pairs(vertices, top_k=4)
        want_images = {tied_matcher.images[c].image_id for c in (0, 1, 3, 6)}
        assert pairs == {(v, i) for v in vertices for i in want_images}

    def test_brute_topk_is_the_reference_total_order(self, tied_matcher):
        """score_topk's brute path reproduces the ``(-score, position)``
        sort of the golden score matrix, end to end."""
        ids, scores = tied_matcher.score_topk(top_k=len(tied_matcher.images))
        full = tied_matcher.score()
        for row in range(len(ids)):
            pairs = list(zip(-scores[row], ids[row]))
            assert pairs == sorted(pairs)
            np.testing.assert_array_equal(np.sort(ids[row]),
                                          np.arange(len(tied_matcher.images)))
            np.testing.assert_array_equal(scores[row], full[row][ids[row]])

    def test_match_pairs_stable_across_calls(self, tied_matcher):
        first = tied_matcher.match_pairs(top_k=3)
        for _ in range(3):
            assert tied_matcher.match_pairs(top_k=3) == first

    def test_exhaustive_index_matches_brute_exactly(self, tied_matcher):
        """nprobe >= nlist routes through the index yet must reproduce
        the brute matching set on a tie-riddled repository."""
        brute = tied_matcher.match_pairs(top_k=3)
        tied_matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                             refine=8, seed=0))
        try:
            assert tied_matcher.match_pairs(top_k=3) == brute
        finally:
            tied_matcher.detach_index()

    def test_score_topk_paths_agree_exhaustively(self, tied_matcher):
        want_ids, want_scores = tied_matcher.score_topk(top_k=5)
        tied_matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                             refine=8, seed=0))
        try:
            got_ids, got_scores = tied_matcher.score_topk(top_k=5)
        finally:
            tied_matcher.detach_index()
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_scores, want_scores)


class TestAttachValidation:
    def test_attach_rejects_wrong_size_index(self, tied_matcher,
                                             tiny_dataset, tiny_bundle):
        other = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                   seed=1))
        other.fit(tiny_dataset.graph, tiny_dataset.images,
                  tiny_dataset.entity_vertices)
        index = other.build_index(IVFPQConfig(nlist=4, pq_m=4, seed=0))
        other.detach_index()
        with pytest.raises(ValueError, match="vectors"):
            tied_matcher.attach_index(index)

    def test_detach_restores_brute(self, tied_matcher):
        index = tied_matcher.build_index(IVFPQConfig(nlist=4, pq_m=4,
                                                     seed=0))
        assert tied_matcher.search_index is index
        tied_matcher.detach_index()
        assert tied_matcher.search_index is None

    def test_score_untouched_by_attached_index(self, tied_matcher):
        """The golden reference must not notice the index at all."""
        before = tied_matcher.score()
        tied_matcher.build_index(IVFPQConfig(nlist=4, pq_m=4, seed=0))
        try:
            np.testing.assert_array_equal(tied_matcher.score(), before)
        finally:
            tied_matcher.detach_index()


class TestScoreTopkOnIncomparableScores:
    def test_nan_rows_are_padded_not_fatal(self, tied_matcher,
                                           monkeypatch):
        """A score row with fewer than ``top_k`` comparable values keeps
        them, best first, and pads with ``-1`` / ``-inf``, as the
        docstring promises; every other row is its usual cut."""
        vertices = list(tied_matcher.vertex_ids[:5])
        real = tied_matcher.score(vertices)
        planted = real.copy()
        planted[1, :] = np.nan
        planted[3, 2:] = np.nan
        monkeypatch.setattr(tied_matcher, "score",
                            lambda vertex_ids=None: planted.copy())
        ids, scores = tied_matcher.score_topk(vertices, 4)
        assert ids.shape == scores.shape == (5, 4)
        np.testing.assert_array_equal(ids[1], [-1] * 4)
        assert np.isneginf(scores[1]).all()
        top = np.argsort(-planted[3, :2], kind="stable")
        np.testing.assert_array_equal(ids[3], list(top) + [-1, -1])
        assert np.isneginf(scores[3, 2:]).all()
        for row in (0, 2, 4):
            want = sorted(range(real.shape[1]),
                          key=lambda i: (-real[row, i], i))[:4]
            np.testing.assert_array_equal(ids[row], want)
            np.testing.assert_array_equal(scores[row], real[row, want])
