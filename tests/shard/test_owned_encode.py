"""A shard worker encodes only the images it owns.

Its scoring operand keeps the unsharded shape (owned rows encoded, the
rest zero), so every owned score is the bits the unsharded service
computes.  The sweep checks that end to end: at every repository size
and shard count, each slot's full-depth answer table equals the
unsharded ranking restricted to the slot's owned image ids — sizes
chosen so that the owned share's last 64-row encode chunk is short,
full or one row over, and so that the owned counts include those
where a product against the owned rows alone picked a different BLAS
kernel than the whole product (DESIGN.md §14).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.datasets.generator import build_attribute_dataset
from repro.serve import MatchService, ServeConfig
from repro.shard.partition import owned_positions

SIZES = (20, 74, 129, 244, 341, 438, 1_950, 2_000)


@pytest.fixture(scope="module")
def big_dataset(tiny_bundle):
    """2,000 images over the bundle's 16 concepts; a prefix of it is
    each sweep size's repository."""
    return build_attribute_dataset(tiny_bundle.universe, name="owned-sweep",
                                   concept_indices=range(16),
                                   images_per_concept=125, seed=11)


def fitted(bundle, dataset, images: int) -> CrossEM:
    matcher = CrossEM(bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(dataset.graph, dataset.images[:images],
                dataset.entity_vertices)
    return matcher


def restricted(ranking, owned_ids):
    ids, scores = ranking
    keep = np.isin(ids, owned_ids)
    return ids[keep], scores[keep]


@pytest.mark.parametrize("images", SIZES)
def test_every_slot_table_is_the_unsharded_ranking_restricted(
        tiny_bundle, big_dataset, images):
    matcher = fitted(tiny_bundle, big_dataset, images)
    ids = np.array([img.image_id for img in matcher.images])
    # Every slot of both fleets first, over one matcher whose
    # whole-repository cache stays cold: each service encodes its own
    # share, and none may see another's rows.
    sharded = {}
    for count in (2, 3):
        for slot in range(count):
            service = MatchService(matcher, config=ServeConfig(
                shard_slot=slot, shard_count=count)).warmup()
            assert matcher._image_embeds is None
            sharded[count, slot] = service._table
    single = MatchService(matcher).warmup()._table
    for (count, slot), table in sharded.items():
        owned_ids = ids[owned_positions(images, count, slot)]
        assert table.keys() == single.keys()
        for vertex, (got_ids, got_scores) in table.items():
            want_ids, want_scores = restricted(single[vertex], owned_ids)
            assert np.array_equal(got_ids, want_ids), (count, slot, vertex)
            assert np.array_equal(got_scores, want_scores), \
                (count, slot, vertex)


def test_a_warm_cache_is_used_not_re_encoded(tiny_bundle, big_dataset,
                                             monkeypatch):
    matcher = fitted(tiny_bundle, big_dataset, 129)
    single = MatchService(matcher).warmup()._table
    calls = []
    real = CrossEM._encode_image_rows
    monkeypatch.setattr(CrossEM, "_encode_image_rows",
                        lambda self, positions: calls.append(positions)
                        or real(self, positions))
    table = MatchService(matcher, config=ServeConfig(
        shard_slot=1, shard_count=2)).warmup()._table
    assert calls == []
    ids = np.array([img.image_id for img in matcher.images])
    owned_ids = ids[owned_positions(129, 2, 1)]
    for vertex, (got_ids, got_scores) in table.items():
        want_ids, want_scores = restricted(single[vertex], owned_ids)
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_scores, want_scores)


def test_image_matrix_is_whole_shape_and_read_only(tiny_bundle,
                                                   big_dataset):
    matcher = fitted(tiny_bundle, big_dataset, 74)
    owned = owned_positions(74, 3, 2)
    matrix = matcher.image_matrix(owned)
    assert matrix.shape == (74, tiny_bundle.clip.embed_dim)
    assert matrix.dtype == np.float32 and matrix.flags.c_contiguous
    assert not matrix.flags.writeable
    others = np.setdiff1d(np.arange(74), owned)
    assert not matrix[others].any()
    whole = matcher._encode_images().numpy()
    assert np.array_equal(matrix[owned], whole[owned])


def test_a_slot_that_owns_nothing_has_empty_rankings(tiny_bundle,
                                                     big_dataset):
    matcher = fitted(tiny_bundle, big_dataset, 2)
    service = MatchService(matcher, config=ServeConfig(
        shard_slot=2, shard_count=3)).warmup()
    assert service.owned_images == 0
    for ids, scores in service._table.values():
        assert len(ids) == 0 and len(scores) == 0
