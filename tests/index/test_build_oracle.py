"""The IVF-PQ build against its oracle.

``build_ivfpq`` trains its quantizers with the vectorized ``kmeans``
and assigns and encodes in row blocks; the five arrays it writes must
be ``np.array_equal`` to those of the build it replaced
(``tests/oracles/ivfpq_build.py``), so a REPROIX1 shard's section
digests do not move.  Duplicate-heavy input leaves k-means labels
unused and inverted lists empty; search over such an index must still
be exact."""

import dataclasses

import numpy as np
import pytest

from repro.index import IVFPQConfig, build_ivfpq, deterministic_topk_rows
from repro.index.ivfpq import _assign_nearest
from tests.oracles import ivfpq_build

#: a scaled-down index world: the train sample and every list of rows
#: end in a partial 256-row block
CONFIG = IVFPQConfig(nlist=32, pq_m=8, train_sample=1000,
                     kmeans_iterations=10)


def index_world(seed, vectors=3000, dim=32, centres=96):
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((centres, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    points = anchors[rng.integers(0, centres, size=vectors)] \
        + 0.08 * rng.standard_normal((vectors, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return np.ascontiguousarray(points, dtype=np.float32)


def duplicate_world(dim=16):
    """40 distinct unit vectors, 10 copies each."""
    distinct = np.random.default_rng(0).standard_normal((40, dim))
    distinct /= np.linalg.norm(distinct, axis=1, keepdims=True)
    return np.repeat(distinct, 10, axis=0).astype(np.float32)


DUPLICATE_CONFIG = IVFPQConfig(nlist=64, pq_m=4, seed=0)


def assert_matches_oracle(points, config):
    index = build_ivfpq(points, config)
    want = ivfpq_build.ivfpq_build_arrays(points, config)
    for name, array in want.items():
        np.testing.assert_array_equal(np.asarray(getattr(index, name)),
                                      array, err_msg=name)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_build_equals_oracle(seed):
    assert_matches_oracle(index_world(seed),
                          dataclasses.replace(CONFIG, seed=seed))


@pytest.mark.parametrize("n,k,levels,seed", [(514, 256, 2, 4),
                                              (16386, 4, 3, 6)])
def test_assignment_equals_oracle_on_lattice_ties(n, k, levels, seed):
    """0.1-lattice points against copies of k of them: distances tie
    exactly, so a dot product one ulp off moves a label.  In these
    worlds one GEMM per distance block does (OpenBLAS, Haswell); the
    assignment keeps one GEMM for all rows."""
    rng = np.random.default_rng(seed)
    points = (rng.integers(0, levels, size=(n, 64)) / 10).astype(np.float32)
    centroids = points[rng.choice(n, k, replace=False)]
    np.testing.assert_array_equal(
        _assign_nearest(points, centroids),
        ivfpq_build._assign_nearest(points, centroids))


def test_duplicate_world_build_equals_oracle():
    assert_matches_oracle(duplicate_world(), DUPLICATE_CONFIG)


def test_duplicate_world_search_is_exact_through_escalation():
    points = duplicate_world()
    index = build_ivfpq(points, DUPLICATE_CONFIG)
    sizes = np.diff(index.list_offsets)
    assert (sizes == 0).sum() > 0
    # a label kmeans left unused keeps a zero centroid
    assert (~index.centroids.any(axis=1)).sum() > 0
    rng = np.random.default_rng(3)
    queries = points[::40] + 0.05 * rng.standard_normal(
        (10, points.shape[1])).astype(np.float32)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    k = 25
    assert sizes.max() * 2 < k  # two probed lists never hold k vectors
    result = index.search(queries, k, nprobe=2)
    assert (result.probes == index.nlist).all()  # every query escalated
    scores = queries @ points.T
    want = deterministic_topk_rows(scores, k)
    np.testing.assert_array_equal(result.ids, want)
    np.testing.assert_array_equal(result.scores,
                                  np.take_along_axis(scores, want, axis=1))
