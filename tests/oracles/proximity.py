"""Golden reference for :func:`repro.core.minibatch.pairwise_proximity`.

``pairwise_proximity_reference`` is the naive per-vertex loop the
stacked-GEMM form replaced: one ``(properties, patches * |I|)`` product
and max-reduction per vertex.  Kept outside ``src/`` as the oracle the
vectorized form must equal, ``np.array_equal``, and as the reference
side of ``bench_hotpaths.py``'s ``pairwise_proximity`` row.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.datalake.graph import Graph

__all__ = ["pairwise_proximity_reference"]


def pairwise_proximity_reference(graph: Graph, vertex_ids: Sequence[int],
                                 properties: Dict[int, np.ndarray],
                                 patch_features: np.ndarray,
                                 d: int = 1) -> np.ndarray:
    """The retained naive per-vertex loop (golden-equivalence tests
    assert :func:`pairwise_proximity` matches it exactly)."""
    num_images = patch_features.shape[0]
    flat_patches = patch_features.reshape(-1, patch_features.shape[-1])
    proximity = np.zeros((len(vertex_ids), num_images), dtype=np.float32)
    for row, vid in enumerate(vertex_ids):
        prop_matrix = properties[vid]
        closeness = prop_matrix @ flat_patches.T
        closeness = closeness.reshape(len(prop_matrix), num_images, -1)
        proximity[row] = closeness.max(axis=2).mean(axis=0)
    return proximity
