"""Golden references for :func:`repro.core.minibatch.kmeans`.

``kmeans_loop`` is the trainer as it stood before its centre update
and distance pass were restructured: one full ``(n, k)`` distance
expression per iteration and a per-cluster mask-and-mean loop.
``kmeans_reference`` is the older naive Lloyd iteration with the
``(n, k, d)`` broadcast temporary.  Both are kept, outside ``src/``, as
oracles: ``kmeans`` must assign ``np.array_equal`` labels to
``kmeans_loop`` on every input, and to ``kmeans_reference`` wherever
the two distance forms agree on the argmin.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import SeedLike, rng_from
from repro.obs import registry

__all__ = ["kmeans_loop", "kmeans_reference"]


def kmeans_loop(points: np.ndarray, k: int, rng: SeedLike = None,
                iterations: int = 25) -> np.ndarray:
    """Seeded Lloyd's k-means; returns integer labels per point.

    Small and deterministic on purpose — scipy's kmeans2 seeds globally.
    Empty clusters are re-seeded from the farthest points.

    Distances use the ``‖x‖² + ‖c‖² − 2·x·cᵀ`` expansion: one GEMM and
    two squared-norm vectors instead of the ``(n, k, d)`` broadcast
    temporary the naive form materializes.  The expansion rounds
    differently at the ULP level, but assignments only consume distances
    through argmin/argmax, which golden tests pin to
    :func:`kmeans_reference` labels.
    """
    rng = rng_from(rng)
    n = len(points)
    k = min(k, n)
    if k <= 1:
        return np.zeros(n, dtype=np.int64)
    points = np.asarray(points)
    pts = points.astype(np.float64)
    # Centers follow the reference update exactly (means in the input
    # dtype, upcast on store) so the two variants only differ in how the
    # point-center distances round.
    centers = points[rng.choice(n, size=k, replace=False)].astype(np.float64)
    point_norms = (pts ** 2).sum(axis=1)
    labels = np.zeros(n, dtype=np.int64)
    iterations_run = 0
    for _ in range(iterations):
        iterations_run += 1
        center_norms = (centers ** 2).sum(axis=1)
        distances = (point_norms[:, None] + center_norms[None, :]
                     - 2.0 * (pts @ centers.T))
        new_labels = distances.argmin(axis=1)
        for cluster in range(k):
            members = points[new_labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
            else:
                farthest = distances.min(axis=1).argmax()
                centers[cluster] = points[farthest]
                new_labels[farthest] = cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    registry().counter("pcp.kmeans_iterations").inc(iterations_run)
    return labels


def kmeans_reference(points: np.ndarray, k: int, rng: SeedLike = None,
                     iterations: int = 25) -> np.ndarray:
    """The retained naive Lloyd iteration with the ``(n, k, d)``
    broadcast temporary (golden tests assert :func:`kmeans` assigns the
    same labels)."""
    rng = rng_from(rng)
    n = len(points)
    k = min(k, n)
    if k <= 1:
        return np.zeros(n, dtype=np.int64)
    centers = points[rng.choice(n, size=k, replace=False)].astype(np.float64)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        for cluster in range(k):
            members = points[new_labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
            else:
                farthest = distances.min(axis=1).argmax()
                centers[cluster] = points[farthest]
                new_labels[farthest] = cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels
