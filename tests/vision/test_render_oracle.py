"""The batch-wide renderer against the one-image-at-a-time oracle.

``tests/oracles/render.py`` is the renderer as it stood before views
were painted, noised and clipped as whole arrays.  Every case must
match it exactly: pixels, ``image_id``, ``concept_index``, the shuffle
order — and the generator's state afterwards, because callers keep
drawing from it (the repository's shuffle, ``pretrain_clip``'s noisy
caption swap).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.world import Concept, ConceptUniverse
from repro.vision.image import RENDER_BLOCK, render_concept, render_repository
from tests.oracles import render as oracle


@pytest.fixture(scope="module")
def universe():
    return ConceptUniverse(12, kind="entity", seed=3)


def assert_same_repository(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.image_id == b.image_id
        assert a.concept_index == b.concept_index
        assert a.pixels.dtype == b.pixels.dtype == np.float32
        assert np.array_equal(a.pixels, b.pixels)


def assert_same_state(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state


def both(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("per_concept", [0, 1, 5, 100])
def test_repository_equals_oracle(universe, seed, per_concept):
    got_rng, want_rng = both(seed)
    concepts = list(universe)
    assert_same_repository(
        render_repository(concepts, per_concept, seed=got_rng),
        oracle.render_repository(concepts, per_concept, seed=want_rng))
    assert_same_state(got_rng, want_rng)


@pytest.mark.parametrize("images", [RENDER_BLOCK - 1, RENDER_BLOCK,
                                    RENDER_BLOCK + 1])
def test_repository_across_a_block_edge(universe, images):
    concepts = [universe[i % len(universe)] for i in range(images)]
    got_rng, want_rng = both(images)
    assert_same_repository(render_repository(concepts, 1, seed=got_rng),
                           oracle.render_repository(concepts, 1,
                                                    seed=want_rng))
    assert_same_state(got_rng, want_rng)


def test_a_concept_with_no_visual_items(universe):
    bare = Concept(index=99, name="bare", visual={}, symbolic={})
    concepts = [universe[0], bare, universe[1]]
    got_rng, want_rng = both(4)
    assert_same_repository(render_repository(concepts, 3, seed=got_rng),
                           oracle.render_repository(concepts, 3,
                                                    seed=want_rng))
    assert_same_state(got_rng, want_rng)
    assert np.array_equal(render_concept(bare, rng=2),
                          oracle.render_concept(bare, rng=2))


@pytest.mark.parametrize("occlusion_prob", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("noise", [0.0, 0.08])
def test_single_views_from_a_shared_generator(universe, occlusion_prob,
                                              noise):
    got_rng, want_rng = both(8)
    for concept in universe:
        got = render_concept(concept, got_rng, noise=noise,
                             occlusion_prob=occlusion_prob)
        want = oracle.render_concept(concept, want_rng, noise=noise,
                                     occlusion_prob=occlusion_prob)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert_same_state(got_rng, want_rng)


@pytest.mark.parametrize("seed", [0, 42, 2**31 + 5])
def test_single_view_from_an_int_seed(universe, seed):
    for concept in universe:
        assert np.array_equal(render_concept(concept, rng=seed),
                              oracle.render_concept(concept, rng=seed))


def test_repository_noise_zero(universe):
    got_rng, want_rng = both(6)
    concepts = list(universe)
    assert_same_repository(
        render_repository(concepts, 4, seed=got_rng, noise=0.0),
        oracle.render_repository(concepts, 4, seed=want_rng, noise=0.0))
    assert_same_state(got_rng, want_rng)


def test_repository_from_an_int_seed(universe):
    concepts = list(universe)
    assert_same_repository(render_repository(concepts, 3, seed=17),
                           oracle.render_repository(concepts, 3, seed=17))
