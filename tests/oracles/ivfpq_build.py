"""Golden reference for the arrays :func:`repro.index.build_ivfpq`
writes.

``ivfpq_build_arrays`` is the index build as it stood before its
k-means and its nearest-centre passes were restructured: the coarse and
product quantizers are trained with :func:`~tests.oracles.kmeans.
kmeans_loop`, every vector is assigned with one full ``(n, nlist)``
distance expression, and each subspace is encoded with one full
``(n, ksub)`` one.  It consumes the seeded generator in the same order
as the build, so the five arrays it returns must be ``np.array_equal``
to the index's.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.index import IVFPQConfig
from repro.nn.init import rng_from
from tests.oracles.kmeans import kmeans_loop

__all__ = ["ivfpq_build_arrays"]


def _centroids_from_labels(points: np.ndarray,
                           labels: np.ndarray) -> np.ndarray:
    k = int(labels.max()) + 1 if len(labels) else 0
    centroids = np.zeros((k, points.shape[1]), dtype=np.float64)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    np.add.at(centroids, labels, points.astype(np.float64))
    centroids /= np.maximum(counts, 1.0)[:, None]
    return centroids.astype(np.float32)


def _assign_nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    dots = points @ centroids.T
    c_norms = (centroids.astype(np.float64) ** 2).sum(axis=1)
    p_norms = (points.astype(np.float64) ** 2).sum(axis=1)
    return (p_norms[:, None] + c_norms[None, :]
            - 2.0 * dots).argmin(axis=1).astype(np.int64)


def _pad_subspaces(matrix: np.ndarray, padded_dim: int) -> np.ndarray:
    if matrix.shape[1] == padded_dim:
        return matrix
    out = np.zeros((matrix.shape[0], padded_dim), dtype=np.float32)
    out[:, :matrix.shape[1]] = matrix
    return out


def ivfpq_build_arrays(embeddings: np.ndarray,
                       config: IVFPQConfig) -> Dict[str, np.ndarray]:
    """The ``centroids``, ``codebooks``, ``list_offsets``, ``list_ids``
    and ``list_codes`` of the index built over ``embeddings``."""
    embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
    n, dim = embeddings.shape
    rng = rng_from(config.seed)
    if n > config.train_sample:
        sample_rows = np.sort(rng.choice(n, size=config.train_sample,
                                         replace=False))
        sample = embeddings[sample_rows]
    else:
        sample = embeddings
    nlist = min(config.nlist, len(sample))
    labels = kmeans_loop(sample, nlist, rng=rng,
                         iterations=config.kmeans_iterations)
    centroids = _centroids_from_labels(sample, labels)
    assignment = _assign_nearest(embeddings, centroids)
    pq_m = min(config.pq_m, dim)
    sub_dim = -(-dim // pq_m)
    padded_dim = sub_dim * pq_m
    residuals = _pad_subspaces(embeddings - centroids[assignment], padded_dim)
    sample_residuals = residuals[sample_rows] \
        if n > config.train_sample else residuals
    ksub = min(2 ** config.pq_bits, len(sample_residuals))
    codebooks = np.zeros((pq_m, ksub, sub_dim), dtype=np.float32)
    codes = np.zeros((n, pq_m), dtype=np.uint8)
    for j in range(pq_m):
        lo, hi = j * sub_dim, (j + 1) * sub_dim
        sub_labels = kmeans_loop(sample_residuals[:, lo:hi], ksub, rng=rng,
                                 iterations=config.kmeans_iterations)
        book = _centroids_from_labels(sample_residuals[:, lo:hi], sub_labels)
        codebooks[j, :len(book)] = book
        dots = residuals[:, lo:hi] @ codebooks[j].T
        c_norms = (codebooks[j].astype(np.float64) ** 2).sum(axis=1)
        codes[:, j] = (c_norms[None, :] - 2.0 * dots).argmin(axis=1)
    order = np.argsort(assignment, kind="stable")
    list_sizes = np.bincount(assignment, minlength=len(centroids))
    offsets = np.zeros(len(centroids) + 1, dtype=np.int64)
    np.cumsum(list_sizes, out=offsets[1:])
    return {"centroids": centroids, "codebooks": codebooks,
            "list_offsets": offsets, "list_ids": order.astype(np.int64),
            "list_codes": codes[order]}
