"""The frozen operands of scoring are handed out, not copied — safely.

``CrossEM.score`` used to rebuild its image operand per call (an index
array over the whole repository, then a gather copy) and, for a soft
prompt, to re-run the text tower per call.  It now reads two cached
matrices, so four things need pinning: the served bits are the ones
the gather copy and the per-call encode produced, nobody can write
through what is handed out, the text matrix lives exactly from the end
of a ``fit`` to the next load of tuned state, and the memory meter
charges what it charged.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.core.matcher import CrossEM, CrossEMConfig
from repro.core.persistence import load_matcher, save_matcher
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
        text = fitted._cached_text_matrix()
        assert text is fitted._text_embeds
        assert not text.flags.writeable
        with pytest.raises(ValueError):
            text[0, 0] = 0.0
        with pytest.raises(ValueError):
            text *= 2.0

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


def soft_matcher(tiny_bundle, tiny_dataset, epochs=1) -> CrossEM:
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="soft", epochs=epochs,
                                                 lr=1e-3, seed=3))
    return matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                       tiny_dataset.entity_vertices)


def chunked_reencode(matcher: CrossEM, chunk: int = 64) -> np.ndarray:
    """The tuned text rows as ``score()`` used to make them: a fresh
    tower run per 64-vertex chunk through ``encode_vertices``."""
    vertices = list(matcher.vertex_ids)
    with nn.no_grad():
        return np.concatenate(
            [matcher.encode_vertices(vertices[s:s + chunk]).numpy()
             for s in range(0, len(vertices), chunk)], axis=0)


class TestTunedTextMatrix:
    """``prompt="soft"``: after ``fit`` the tuned query side is as
    resident as the gallery."""

    @pytest.fixture(scope="class")
    def soft(self, tiny_bundle, tiny_dataset):
        return soft_matcher(tiny_bundle, tiny_dataset)

    def test_score_equals_a_fresh_chunked_reencode(self, soft):
        text = chunked_reencode(soft)
        assert np.array_equal(soft._cached_text_matrix(), text)
        assert np.array_equal(soft.score(),
                              text @ soft._encode_images().numpy().T)

    def test_every_serving_tile_equals_its_slice(self, soft):
        """What the service's fixed ``batch_tile``-row operand used to
        encode per request is what it now slices: a padded tile of any
        vertex, re-encoded, is bit for bit its rows of the matrix.  (A
        1-row encode is *not*: BLAS rounds by operand shape, which is
        why the matrix — not a per-call encode — is the one source.)"""
        tile = ServeConfig().batch_tile
        matrix = soft._cached_text_matrix()
        vertices = list(soft.vertex_ids)
        with nn.no_grad():
            for start in range(0, len(vertices), tile):
                chunk = vertices[start:start + tile]
                operand = chunk + [chunk[-1]] * (tile - len(chunk))
                rows = soft.encode_vertices(operand).numpy()
                assert np.array_equal(rows[:len(chunk)],
                                      matrix[start:start + len(chunk)])
            for row, vertex in enumerate(vertices):
                rows = soft.encode_vertices([vertex] * tile).numpy()
                assert np.array_equal(rows, np.tile(matrix[row], (tile, 1)))

    def test_load_matcher_drops_it(self, soft, tiny_bundle, tiny_dataset,
                                   tmp_path):
        """A loaded matcher answers from the *saver's* tuned prompts,
        not from a matrix built over its own fresh ones."""
        path = save_matcher(soft, tmp_path / "soft.npz")
        fresh = soft_matcher(tiny_bundle, tiny_dataset, epochs=0)
        untuned = fresh.score()  # builds a matrix over untuned prompts
        assert not np.array_equal(untuned, soft.score())
        load_matcher(path, tiny_bundle, tiny_dataset.graph,
                     tiny_dataset.images, fresh)
        assert fresh._text_embeds is None
        assert np.array_equal(fresh.score(), soft.score())

    def test_resume_drops_it(self, tiny_bundle, tiny_dataset, tmp_path):
        """``_resume_training`` swaps tuned state in mid-``fit``: a
        matrix present at that moment must not survive it."""
        whole = soft_matcher(tiny_bundle, tiny_dataset, epochs=2)
        first = CrossEM(tiny_bundle, CrossEMConfig(prompt="soft", epochs=1,
                                                   lr=1e-3, seed=3))
        first.fit(tiny_dataset.graph, tiny_dataset.images,
                  tiny_dataset.entity_vertices, checkpoint_dir=tmp_path)
        resumed = CrossEM(tiny_bundle, CrossEMConfig(prompt="soft", epochs=2,
                                                     lr=1e-3, seed=3))
        resume = resumed._resume_training

        def resume_over_a_stale_matrix(*args):
            resumed._cached_text_matrix()  # untuned prompts
            epoch = resume(*args)
            assert resumed._text_embeds is None
            return epoch

        resumed._resume_training = resume_over_a_stale_matrix
        resumed.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices, resume_from=tmp_path)
        assert np.array_equal(resumed.score(), whole.score())

    def test_gradients_still_reach_the_prompt_table(self, soft):
        """``encode_vertices`` stays the always-compute, grad-capable
        path whether or not the matrix exists."""
        soft._cached_text_matrix()
        table = soft.soft_prompts.prompt_table
        table.zero_grad()
        rows = soft.encode_vertices(list(soft.vertex_ids[:4]))
        assert rows.requires_grad
        rows.sum().backward()
        assert table.grad is not None and np.abs(table.grad[:4]).sum() > 0
        assert not np.shares_memory(rows.numpy(), soft._text_embeds)
        table.zero_grad()

    def test_two_threads_racing_the_first_build_read_equal_bytes(
            self, tiny_bundle, tiny_dataset):
        matcher = soft_matcher(tiny_bundle, tiny_dataset)
        reference = chunked_reencode(matcher)
        barrier = threading.Barrier(2)
        seen = [None, None]

        def build(slot: int) -> None:
            barrier.wait(timeout=10)
            seen[slot] = matcher._cached_text_matrix()

        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two builds finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for matrix in seen:
            assert not matrix.flags.writeable
            assert matrix.tobytes() == reference.tobytes()
        assert matcher._text_embeds.tobytes() == reference.tobytes()


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

