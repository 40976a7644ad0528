"""The frozen operands of scoring are handed out, not copied — safely.

``CrossEM.score`` used to rebuild its image operand per call (an index
array over the whole repository, then a gather copy).  It now reads
the cached matrix itself, so three things need pinning: the served
bits are the ones the gather copy produced, nobody can write through
what is handed out, and the memory meter charges what it charged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.serve import ServeConfig


@pytest.fixture(scope="module", params=["soft", "hard"])
def fitted(request, tiny_bundle, tiny_dataset):
    matcher = CrossEM(tiny_bundle, CrossEMConfig(
        prompt=request.param, epochs=1 if request.param == "soft" else 0,
        seed=3))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    return matcher


def gather_copy_product(matcher: CrossEM, vertices) -> np.ndarray:
    """``score`` as it was: a fresh fancy-index copy of the whole image
    matrix, transposed into the GEMM."""
    text = matcher._text_queries(list(vertices))
    copied = matcher._encode_images(range(len(matcher.images))).numpy()
    assert not np.shares_memory(copied, matcher._image_embeds)
    return text @ copied.T


class TestServedBitsUnchanged:
    def test_every_tile_of_every_vertex(self, fitted):
        tile = ServeConfig().batch_tile
        for vertex in fitted.vertex_ids:
            operand = [vertex] * tile
            assert np.array_equal(fitted.score(operand),
                                  gather_copy_product(fitted, operand))

    def test_mixed_tiles_and_the_full_product(self, fitted):
        tile = ServeConfig().batch_tile
        vertices = list(fitted.vertex_ids)
        for start in range(0, len(vertices), tile):
            chunk = vertices[start:start + tile]
            operand = chunk + [chunk[-1]] * (tile - len(chunk))
            assert np.array_equal(fitted.score(operand),
                                  gather_copy_product(fitted, operand))
        assert np.array_equal(fitted.score(),
                              gather_copy_product(fitted, vertices))


class TestFrozenOperandsAreReadOnly:
    def test_full_matrix_is_the_cache_itself(self, fitted):
        fitted.score()
        handed = fitted._encode_images().numpy()
        assert handed is fitted._image_embeds
        assert handed.flags.c_contiguous and not handed.flags.writeable
        with pytest.raises(ValueError):
            handed[0, 0] = 0.0
        with pytest.raises(ValueError):
            handed *= 2.0

    def test_subset_is_a_private_copy(self, fitted):
        subset = fitted._encode_images([0, 2]).numpy()
        assert not np.shares_memory(subset, fitted._image_embeds)
        before = fitted._image_embeds[0].copy()
        subset[0] = 0.0  # writable, and nobody else's
        assert np.array_equal(fitted._image_embeds[0], before)

    def test_text_cache_is_read_only(self, fitted):
        if fitted.config.prompt == "soft":
            pytest.skip("soft prompts have no text cache")
        text = fitted._cached_text_matrix()
        assert not text.flags.writeable
        with pytest.raises(ValueError):
            text[0, 0] = 0.0

    def test_score_returns_a_fresh_writable_array(self, fitted):
        vertices = list(fitted.vertex_ids[:3])
        first = fitted.score(vertices)
        assert first.flags.writeable and first.flags.owndata
        assert not np.shares_memory(first, fitted._image_embeds)
        expected = first.copy()
        first[:] = -1.0  # a caller scribbling on its own answer
        assert np.array_equal(fitted.score(vertices), expected)

    def test_index_shares_the_matrix_without_writing_it(self, fitted):
        before = fitted._image_embeds.copy()
        fitted.build_index()
        try:
            fitted.score_topk(top_k=3)
        finally:
            fitted.detach_index()
        assert np.array_equal(fitted._image_embeds, before)


class TestMemoryMeterUnchanged:
    def test_fit_peak_equals_gather_copy_accounting(self, tiny_bundle,
                                                    tiny_dataset,
                                                    monkeypatch):
        """Table III ``Mem``: ``Tensor.__init__`` charges ``nbytes``
        whether it wraps the cache or a copy of it, so the fit peak is
        what it was when ``_label_scores`` gathered a copy."""
        def fit_peak() -> int:
            matcher = CrossEM(tiny_bundle, CrossEMConfig(
                prompt="soft", epochs=1, seed=3))
            matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                        tiny_dataset.entity_vertices)
            return matcher.efficiency.peak_memory_bytes

        zero_copy = fit_peak()
        encode_images = CrossEM._encode_images

        def gathering(self, indices=None):
            if indices is None:
                indices = range(len(self.images))
            return encode_images(self, indices)

        monkeypatch.setattr(CrossEM, "_encode_images", gathering)
        assert fit_peak() == zero_copy
        assert zero_copy > 0

