"""Golden reference for :func:`repro.index.deterministic_topk_rows`.

``deterministic_topk`` and ``deterministic_topk_rows`` as they stood
before the rows function became one batched cut bounded by block
maxima: one ``argpartition``, widened to the k-th value's tie class,
and one ``lexsort`` per row.  Kept outside ``src/`` as the oracle the
batched cut must equal, ``np.array_equal``, on every input whose rows
each hold at least k comparable values (NaN among them included).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["deterministic_topk", "deterministic_topk_rows"]


def deterministic_topk(scores: np.ndarray, k: int,
                       tie_break: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the ``k`` largest entries of 1-D ``scores``, ordered
    by ``(-score, index)`` — or ``(-score, tie_break[index])``, given a
    ``tie_break`` array aligned with ``scores`` (read at the few
    candidate indices only, never in a pass over the row).

    Ties at the selection boundary are resolved toward the smallest
    index (key), so the result depends only on the score values.  ``k``
    is clamped to ``len(scores)``; ``k <= 0`` returns an empty array.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if k <= 0 or n == 0:
        return np.zeros(0, dtype=np.int64)
    if k >= n:
        candidates = np.arange(n, dtype=np.int64)
    else:
        # O(n) selection first, then widen to the full tie class of the
        # k-th value so the boundary is score-determined, not pivot-
        # determined.
        rough = np.argpartition(-scores, k - 1)[:k]
        kth = scores[rough].min()
        candidates = np.flatnonzero(scores >= kth).astype(np.int64)
    keys = candidates if tie_break is None else tie_break[candidates]
    order = np.lexsort((keys, -scores[candidates]))
    return candidates[order[:min(k, n)]]


def deterministic_topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`deterministic_topk` over a 2-D score matrix;
    returns an ``(rows, min(k, cols))`` index array."""
    scores = np.atleast_2d(np.asarray(scores))
    kk = max(0, min(k, scores.shape[1]))
    out = np.empty((scores.shape[0], kk), dtype=np.int64)
    for row in range(scores.shape[0]):
        out[row] = deterministic_topk(scores[row], kk)
    return out
