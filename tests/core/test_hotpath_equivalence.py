"""Golden-equivalence tests for the fused encoder pipeline.

Every vectorized hot path must reproduce its retained naive reference
*exactly* (``atol=0``): the optimizations are pure reorderings and
caches, so any drift is a bug, not noise.
"""

import numpy as np
import pytest

from repro.core.minibatch import (kmeans, pairwise_proximity,
                                  property_closeness)
from tests.oracles.kmeans import kmeans_loop, kmeans_reference
from tests.oracles.minilm import embed_texts_reference
from tests.oracles.proximity import pairwise_proximity_reference


@pytest.fixture(scope="module")
def closeness(tiny_bundle, tiny_dataset):
    return property_closeness(tiny_dataset.graph,
                              tiny_dataset.entity_vertices,
                              tiny_dataset.images, tiny_bundle.minilm,
                              tiny_bundle.aligner)


class TestPairwiseProximity:
    def test_matches_reference_exactly(self, tiny_dataset, closeness):
        properties, patches = closeness
        vectorized = pairwise_proximity(tiny_dataset.graph,
                                        tiny_dataset.entity_vertices,
                                        properties, patches)
        reference = pairwise_proximity_reference(tiny_dataset.graph,
                                                 tiny_dataset.entity_vertices,
                                                 properties, patches)
        np.testing.assert_array_equal(vectorized, reference)

    def test_matches_reference_on_ragged_random_properties(self, rng):
        """Property counts vary per vertex; the ragged reduction must
        slice the stacked GEMM at exactly the right rows."""
        num_images, patches_per_image, dim = 7, 4, 16
        patch_features = rng.standard_normal(
            (num_images, patches_per_image, dim)).astype(np.float32)
        vertex_ids = list(range(9))
        properties = {vid: rng.standard_normal(
            (int(rng.integers(1, 6)), dim)).astype(np.float32)
            for vid in vertex_ids}
        vectorized = pairwise_proximity(None, vertex_ids, properties,
                                        patch_features)
        reference = pairwise_proximity_reference(None, vertex_ids, properties,
                                                 patch_features)
        np.testing.assert_array_equal(vectorized, reference)

    def test_empty_vertex_list(self, rng):
        patch_features = rng.random((3, 4, 8)).astype(np.float32)
        out = pairwise_proximity(None, [], {}, patch_features)
        assert out.shape == (0, 3)


class TestKMeans:
    @pytest.mark.parametrize("seed", range(20))
    def test_labels_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        d = int(rng.integers(2, 24))
        k = int(rng.integers(2, 6))
        points = rng.random((n, d)).astype(np.float32)
        points /= points.sum(axis=1, keepdims=True)  # PCP-style rows
        np.testing.assert_array_equal(kmeans(points, k, rng=seed),
                                      kmeans_reference(points, k, rng=seed))

    def test_labels_match_reference_separated_blobs(self):
        rng = np.random.default_rng(3)
        blobs = np.concatenate([rng.normal(loc, 0.1, size=(12, 5))
                                for loc in (0.0, 3.0, -4.0)]).astype(np.float32)
        np.testing.assert_array_equal(kmeans(blobs, 3, rng=1),
                                      kmeans_reference(blobs, 3, rng=1))


class TestKMeansMatchesLoop:
    """``kmeans`` updates every centre in one ``np.add.at`` pass and
    takes its argmin in row blocks; its labels must be exactly those of
    the per-cluster loop it replaced, including the iterations that
    reseed an empty cluster."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 2, 4, 64])
    @pytest.mark.parametrize("n,k", [(600, 256), (513, 256), (300, 300),
                                     (3000, 24)])
    def test_labels_equal_loop(self, dim, dtype, n, k):
        # 256-row distance blocks end partial (513 in a one-row block);
        # k == n starts with every point as a centre; dim >= k and
        # dim == 1 take the per-cluster loop, the rest np.add.at
        rng = np.random.default_rng(1000 * dim + n)
        points = rng.standard_normal((n, dim)).astype(dtype)
        np.testing.assert_array_equal(
            kmeans(points, k, rng=5, iterations=10),
            kmeans_loop(points, k, rng=5, iterations=10))

    def test_column_slices_equal_loop(self):
        """The PQ trainer passes non-contiguous column slices of one
        residual matrix and shares one generator across subspaces."""
        wide = np.random.default_rng(2).standard_normal(
            (1100, 32)).astype(np.float32)
        fast_rng, loop_rng = np.random.default_rng(9), np.random.default_rng(9)
        for lo in range(0, 32, 4):
            sub = wide[:, lo:lo + 4]
            assert not sub.flags.c_contiguous
            np.testing.assert_array_equal(
                kmeans(sub, 64, rng=fast_rng, iterations=10),
                kmeans_loop(sub, 64, rng=loop_rng, iterations=10))

    @pytest.mark.parametrize("n,dim,k,dtype,seed", [
        # summing each cluster pairwise (np.add.reduceat) changes a label
        (113, 3, 11, np.float32, 116), (113, 3, 11, np.float32, 172),
        (113, 3, 11, np.float32, 187),
        # summing a lone column in index order changes a label
        (300, 1, 8, np.float32, 44),
        # adding ‖x‖² after subtracting 2·x·c changes a label
        (513, 16, 40, np.float64, 44),
        # one GEMM per distance block changes a label (OpenBLAS, Haswell)
        (2000, 4, 300, np.float64, 1), (1000, 16, 300, np.float64, 6)])
    def test_lattice_ties_pin_the_arithmetic(self, n, dim, k, dtype, seed):
        """On a 0.1-lattice many distances tie exactly, so a centre or a
        dot product one ulp off moves a label.  Each world here is one
        where a shortcut that rounds differently from the loop does."""
        levels = 60 if dim == 1 else 5
        points = (np.random.default_rng(seed).integers(
            0, levels, size=(n, dim)) / 10).astype(dtype)
        np.testing.assert_array_equal(kmeans(points, k, rng=seed),
                                      kmeans_loop(points, k, rng=seed))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicate_heavy_input_takes_the_reseed_rule(self, dtype):
        """12 distinct points x 30 copies with k = 16: clusters empty,
        and two that empty in one iteration share one reseed point, so
        only 13 labels survive."""
        distinct = np.random.default_rng(0).random((12, 3))
        points = np.repeat(distinct, 30, axis=0).astype(dtype)
        labels = kmeans(points, 16, rng=0)
        np.testing.assert_array_equal(labels, kmeans_loop(points, 16, rng=0))
        assert len(np.unique(labels)) == 13


class TestPropertyCloseness:
    def test_matches_per_item_reference(self, tiny_bundle, tiny_dataset,
                                        closeness):
        """The batched embed/patch pipeline must equal the per-vertex /
        per-image composition it replaced."""
        from repro.core.minibatch import _property_texts
        properties, patches = closeness
        minilm, aligner = tiny_bundle.minilm, tiny_bundle.aligner
        for vid in tiny_dataset.entity_vertices:
            matrix = embed_texts_reference(
                minilm, _property_texts(tiny_dataset.graph, vid, 1))
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            expected = (matrix / np.maximum(norms, 1e-8)).astype(np.float32)
            np.testing.assert_array_equal(properties[vid], expected)
        reference = np.stack([aligner.patch_text_space(img.pixels)
                              for img in tiny_dataset.images])
        norms = np.linalg.norm(reference, axis=-1, keepdims=True)
        reference = (reference / np.maximum(norms, 1e-8)).astype(np.float32)
        np.testing.assert_array_equal(patches, reference)
