"""Text-matrix cache behaviour (the fused encoder pipeline's
matcher-side half): cache hits are observable through the metrics
registry, invalidation happens on fit — for tuned soft prompts as for
discrete ones — and the cached scores agree with the uncached reference
encode path."""


import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry
from tests.oracles.prompt_cache import encode_vertices_reference


@pytest.fixture(scope="module")
def fitted(tiny_bundle, tiny_dataset):
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0))
    return matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                       tiny_dataset.entity_vertices)


class TestPromptCache:
    def test_repeated_encode_hits_cache(self, fitted, tiny_dataset):
        vertices = tiny_dataset.entity_vertices[:4]
        fitted.encode_vertices(vertices)  # first call may build
        hits = registry().counter("matcher.prompt_cache.hit").value
        builds = registry().counter("matcher.prompt_cache.build").value
        for _ in range(3):
            fitted.encode_vertices(vertices)
        assert registry().counter("matcher.prompt_cache.hit").value == hits + 3
        assert registry().counter("matcher.prompt_cache.build").value == builds

    def test_cached_matches_reference_encode(self, fitted, tiny_dataset):
        vertices = tiny_dataset.entity_vertices[:6]
        cached = fitted.encode_vertices(vertices).numpy()
        reference = encode_vertices_reference(fitted, vertices).numpy()
        np.testing.assert_allclose(cached, reference, atol=1e-6)

    def test_fit_invalidates_cache(self, tiny_bundle, tiny_dataset):
        matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="baseline",
                                                     epochs=0))
        matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices)
        matcher.score()
        assert matcher._text_embeds is not None
        assert matcher._image_embeds is not None
        matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices)
        assert matcher._text_embeds is None
        assert matcher._image_embeds is None

    def test_soft_prompt_text_cache_lives_from_fit_to_fit(self, tiny_bundle,
                                                          tiny_dataset):
        """The tuned prompt is frozen once ``fit`` returns: the first
        query builds the matrix, later ones hit it, the next ``fit``
        (which re-tunes the prompt) drops it."""
        matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="soft", epochs=1,
                                                     seed=0))
        matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices)
        assert matcher._text_embeds is None  # training never builds it
        builds = registry().counter("matcher.prompt_cache.build").value
        hits = registry().counter("matcher.prompt_cache.hit").value
        matcher.score()
        assert matcher._text_embeds is not None
        matcher.score(matcher.vertex_ids[:3])
        assert registry().counter("matcher.prompt_cache.build").value \
            == builds + 1
        assert registry().counter("matcher.prompt_cache.hit").value \
            == hits + 1
        matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices)
        assert matcher._text_embeds is None


class TestScoreSignature:
    def test_vertex_batch_is_gone(self, fitted):
        """Nothing is chunked at query time any more — rows are sliced
        from the frozen matrix — so the chunk-size parameter went."""
        with pytest.raises(TypeError):
            fitted.score(vertex_batch=8)


class TestMatchPairsTopK:
    def test_argpartition_matches_argsort_selection(self, fitted,
                                                    tiny_dataset):
        scores = fitted.score()
        pairs = fitted.match_pairs(top_k=3)
        expected = set()
        for row, vertex in enumerate(fitted.vertex_ids):
            for column in np.argsort(-scores[row])[:3]:
                expected.add((vertex, fitted.images[int(column)].image_id))
        assert pairs == expected

    def test_top_k_larger_than_repository(self, fitted, tiny_dataset):
        pairs = fitted.match_pairs(top_k=len(tiny_dataset.images) + 5)
        assert len(pairs) == len(fitted.vertex_ids) * len(tiny_dataset.images)

    def test_top_k_zero(self, fitted):
        assert fitted.match_pairs(top_k=0) == set()
