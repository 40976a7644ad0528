"""The partition contract and the exact cross-shard merge.

The marquee property: for any scores (ties included), restricting each
shard to its owned positions, taking per-shard top-k in the served
``(-score, image id)`` order, and merging in that same order
reconstructs the single-process top-k exactly.  The tests plant
deliberate score ties straddling shard boundaries on a *shuffled-id*
repository (ids are assigned before ``render_repository`` shuffles, so
position order and id order disagree) — the case a position-ordered
selection gets wrong — and select through the real
``MatchService._top``, not a copy of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import MatchService, ServeConfig
from repro.shard import merge_matches, owned_positions


class TestPartition:
    @pytest.mark.parametrize("total,count", [(10, 3), (7, 7), (5, 1),
                                             (16, 4), (3, 5)])
    def test_positions_cover_and_never_overlap(self, total, count):
        seen = np.concatenate([owned_positions(total, count, slot)
                               for slot in range(count)])
        assert sorted(seen.tolist()) == list(range(total))

    @pytest.mark.parametrize("total,count", [(10, 3), (16, 4), (3, 5)])
    def test_mask_agrees_with_positions(self, total, count):
        """The owned positions are exactly where the contract's mask
        ``p % count == slot`` is true, ascending and int64 (they index
        score rows and id arrays directly)."""
        positions = np.arange(total)
        for slot in range(count):
            owned = owned_positions(total, count, slot)
            assert owned.dtype == np.int64
            assert owned.tolist() == \
                np.flatnonzero(positions % count == slot).tolist()

    def test_slot_out_of_range_rejected(self):
        for total, count, slot in ((10, 3, 3), (10, 3, -1), (10, 0, 0),
                                   (-1, 3, 0)):
            with pytest.raises(ValueError):
                owned_positions(total, count, slot)


class Selection:
    """What a ``MatchService`` does at selection time — the real
    ``_top``, unsharded or as each slot of a ``count``-way
    fleet — applied to score rows a test plants."""

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self.images = len(matcher.images)
        self._services = {}

    def _select(self, scores, top_k, slot=None, count=None):
        if (slot, count) not in self._services:
            self._services[slot, count] = MatchService(
                self.matcher, config=ServeConfig(shard_slot=slot,
                                                 shard_count=count))
        service = self._services[slot, count]
        ranked = service._top(np.asarray(scores, dtype=np.float32), top_k)
        return service._matches(*ranked, top_k)

    def single(self, scores, top_k):
        return self._select(scores, top_k)

    def shards(self, scores, top_k, count):
        return [self._select(scores, top_k, slot, count)
                for slot in range(count)]


@pytest.fixture(scope="module")
def selection(fitted_hard):
    ids = [image.image_id for image in fitted_hard.images]
    assert ids != sorted(ids), "the repository must not be id-ordered"
    return Selection(fitted_hard)


class TestMerge:
    def test_planted_ties_across_shards_match_the_oracle(self, selection):
        # duplicate images: three-way ties straddling all three shards,
        # a pair inside one shard, a tie class cut by the top-k boundary
        scores = np.array([9.0, 9.0, 9.0, 5.0, 7.5, 7.5,
                           7.5, 1.0, 2.0, 5.0, 0.5, 5.0,
                           9.0, 3.0, 3.0, 3.0, 3.0, 7.5, 0.25, 0.25])
        assert len(scores) == selection.images
        for count in (2, 3):
            for top_k in (1, 3, 5, 8, 12, 20):
                oracle = selection.single(scores, top_k)
                assert len(oracle) == top_k
                merged = merge_matches(
                    selection.shards(scores, top_k, count), top_k)
                assert merged == oracle, f"count={count} top_k={top_k}"

    def test_ties_are_ordered_by_image_id_not_position(self, selection):
        flat = np.zeros(selection.images)
        everything = selection.single(flat, selection.images)
        assert [m["image"] for m in everything] == \
            list(range(selection.images))

    def test_random_scores_match_the_oracle(self, selection):
        rng = np.random.default_rng(42)
        for count in (2, 3, 7):
            # quantized draws manufacture plenty of accidental ties
            scores = rng.integers(0, 10, size=selection.images) / 2.0
            oracle = selection.single(scores, 10)
            merged = merge_matches(selection.shards(scores, 10, count), 10)
            assert merged == oracle, f"count={count}"

    def test_merge_preserves_match_dicts_untouched(self):
        """Byte-identity depends on the merge never rebuilding dicts —
        the shards' own objects must flow through."""
        a = {"image": 5, "score": 1.0}
        b = {"image": 2, "score": 0.5}
        merged = merge_matches([[a], [b]], 2)
        assert merged[0] is a and merged[1] is b

    def test_tie_breaks_by_ascending_image_id(self):
        merged = merge_matches(
            [[{"image": 5, "score": 1.0}, {"image": 2, "score": 0.5}],
             [{"image": 3, "score": 1.0}, {"image": 9, "score": 0.5}]], 3)
        assert [m["image"] for m in merged] == [3, 5, 2]

