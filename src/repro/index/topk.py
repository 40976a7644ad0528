"""Deterministic top-k selection shared by every retrieval path.

``np.argpartition`` is the right asymptotic tool for top-k (O(n) per
row versus argsort's O(n log n)) but its choice *among tied scores at
the k-th boundary* is an implementation detail of introselect: two
paths that score the same candidates in a different memory layout (the
brute-force GEMM row versus an index shortlist) can legally return
different tied subsets.  That breaks the exactness contract the ANN
index needs — "index-backed top-k with an exhaustive probe is
bit-identical to brute force".

:func:`deterministic_topk` pins the total order to ``(-score, index)``:
highest score first, lowest index among equals.  It keeps the
argpartition O(n) selection, then widens the candidate set to *every*
element tied with the k-th value before sorting, so the returned ids
are a pure function of the scores — never of the partition's internal
pivot walk.  A caller whose answer must not depend on how the items
are laid out either (a shard worker sees every N-th repository
position) passes ``tie_break``: a key per index, image ids there.

:func:`deterministic_topk_rows` returns, for every row of a matrix,
exactly what :func:`deterministic_topk` returns for that row, but cuts
a batch in one pass instead of an argpartition per row:

1. Each row of ``m`` columns is split into ``nb >= k`` strided blocks
   (block ``j`` holds columns ``j, j + nb, ...``; the ``m mod nb``
   tail columns stay outside) and every block's maximum is taken in one
   ``np.fmax`` reduction over a ``(rows, m // nb, nb)`` view.
2. ``th``, the k-th largest block maximum, is a lower bound on the
   row's k-th largest value: the k blocks whose maxima reach it hold k
   distinct elements ``>= th``.  So every element of the top k, and
   every element tied with the k-th value, is ``>= th``.
3. A block whose maximum is below ``th`` holds no element ``>= th``, so
   gathering the blocks that reach ``th`` plus the tail and keeping the
   values ``>= th`` yields exactly ``{j : row[j] >= th}``.  One
   ``np.lexsort`` by ``(row, -score, column)`` orders every row's
   candidates, and each row's first k are its answer.

The argument needs no assumption on the values, so ties stay exact: the
whole tie class at ``th`` is gathered, and the sort key is the one
:func:`deterministic_topk` uses.  NaN never compares ``>= th``;
``np.fmax`` skips it, so a block's maximum still bounds its non-NaN
members.  The cut is exact whenever a row has at least k candidates,
because then its k-th largest value is ``>= th`` and the candidates
hold everything that precedes it.

NaN is not comparable, so it is never selected: on a row with fewer
than k comparable values :func:`deterministic_topk` returns all of
them, in order, and :func:`deterministic_topk_rows`, whose rows are k
wide, raises a ``ValueError`` naming the row.  :func:`padded_topk_rows`
answers such a row with its comparable values and ``-1`` / ``-inf``
padding past them.

Three rules send rows through :func:`deterministic_topk` instead:

* a call with fewer than ``_BATCH_ROWS`` = 4 rows.  The batched cut
  pays a fixed cost per call, 85-105 us on one 1,920-wide row against
  35-40 us for :func:`deterministic_topk` (numpy 2.4, one BLAS thread,
  2-vCPU x86 box).  Measured at 960, 1,920, 19,200 and 40,000 columns
  and k in {1, 5, 10, 16}, it breaks even at 3 rows and wins from 4 at
  the narrow widths, and wins from 2 rows at the wide ones;
* a row with fewer than k candidates, which also gives the row the
  answer, or the error, it has on its own (a NaN ``th``, when k or more
  blocks are all NaN, leaves a row none);
* a row whose bound more than ``_REACH_LIMIT`` x k blocks reach.  That
  happens only when block maxima tie, and in a constant row every block
  reaches it: gathering them copies the row, and one lexsort over a
  whole tied 256 x 40,000 matrix took 1.5-3.0 s and up to 557 MiB
  where the per-row loop takes 0.1 s.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = ["deterministic_topk", "deterministic_topk_rows",
           "padded_topk_rows"]

#: calls with fewer rows cut each row with :func:`deterministic_topk`
_BATCH_ROWS = 4
#: a row whose bound more than this many times k blocks reach is cut
#: with :func:`deterministic_topk`
_REACH_LIMIT = 4


def deterministic_topk(scores: np.ndarray, k: int,
                       tie_break: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the ``k`` largest entries of 1-D ``scores``, ordered
    by ``(-score, index)`` — or ``(-score, tie_break[index])``, given a
    ``tie_break`` array aligned with ``scores`` (read at the few
    candidate indices only, never in a pass over the row).

    Ties at the selection boundary are resolved toward the smallest
    index (key), so the result depends only on the score values.  ``k``
    is clamped to ``len(scores)``; ``k <= 0`` returns an empty array.
    NaN is never selected, so a row with fewer than ``k`` comparable
    values returns every comparable index, in order.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if k <= 0 or n == 0:
        return np.zeros(0, dtype=np.int64)
    kth = np.nan
    if k < n:
        # O(n) selection first, then widen to the full tie class of the
        # k-th value so the boundary is score-determined, not pivot-
        # determined.  The partition sorts NaN last, so a NaN among the
        # first k means fewer than k comparable values.
        rough = np.argpartition(-scores, k - 1)[:k]
        kth = scores[rough].min()
    if np.isnan(kth):
        candidates = np.flatnonzero(~np.isnan(scores))
    else:
        candidates = np.flatnonzero(scores >= kth)
    keys = candidates if tie_break is None else tie_break[candidates]
    order = np.lexsort((keys, -scores[candidates]))
    return candidates[order[:k]]


def deterministic_topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`deterministic_topk` over a 2-D score matrix;
    returns an ``(rows, min(k, cols))`` index array.  Batches of at
    least ``_BATCH_ROWS`` rows are cut by the block-maximum bound (see
    the module doc)."""
    scores = np.atleast_2d(np.asarray(scores))
    rows, cols = scores.shape
    kk = max(0, min(k, cols))
    out = np.empty((rows, kk), dtype=np.int64)
    if rows < _BATCH_ROWS or kk == 0:
        short = range(rows)
    else:
        short = _cut_by_block_bound(scores, kk, out)
    for row in short:
        top = deterministic_topk(scores[row], kk)
        if len(top) < kk:
            raise ValueError(f"row {row} has {len(top)} comparable "
                             f"values, fewer than k = {kk}")
        out[row] = top
    return out


def padded_topk_rows(scores: np.ndarray,
                     k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, values)``, each ``(rows, min(k, cols))``: every row's
    :func:`deterministic_topk_rows` cut, except that when a row has fewer
    than k comparable values every row keeps what
    :func:`deterministic_topk` returns (the same cut, row by row) and
    ``-1`` / ``-inf`` padding past it."""
    scores = np.atleast_2d(np.asarray(scores))
    try:
        top = deterministic_topk_rows(scores, k)
    except ValueError:  # a row too short for a k-wide answer
        kk = max(0, min(k, scores.shape[1]))
        ids = np.full((len(scores), kk), -1, dtype=np.int64)
        values = np.full((len(scores), kk), -np.inf, dtype=scores.dtype)
        for row, row_scores in enumerate(scores):
            top = deterministic_topk(row_scores, kk)
            ids[row, :len(top)] = top
            values[row, :len(top)] = row_scores[top]
        return ids, values
    return top, scores[np.arange(len(scores))[:, None], top]


def _cut_by_block_bound(scores: np.ndarray, kk: int,
                        out: np.ndarray) -> np.ndarray:
    """Write the top ``kk`` of every row the bound narrows into ``out``;
    return the other rows."""
    rows, cols = scores.shape
    # nb ~ 2·sqrt(k·m) balances the nb-wide partition of the block
    # maxima against the ~k gathered blocks of depth m // nb; widening
    # nb to m // depth keeps the tail shorter than one block.
    depth = cols // min(cols, max(kk, math.isqrt(4 * kk * cols)))
    nb = cols // depth
    body = depth * nb
    blocks = scores[:, :body].reshape(rows, depth, nb)
    block_max = np.fmax.reduce(blocks, axis=1)
    th = np.partition(block_max, nb - kk, axis=1)[:, nb - kk]
    reach = block_max >= th[:, None]
    # More than 4k blocks reach a row's bound only when its block maxima
    # tie (a tie-heavy row); gathering them would approach the whole row.
    narrow = reach.sum(axis=1) <= _REACH_LIMIT * kk
    reach &= narrow[:, None]
    hit_rows, hit_blocks = np.divmod(np.flatnonzero(reach), nb)
    values = blocks[hit_rows, :, hit_blocks]              # (hits, depth)
    keep = np.flatnonzero(values >= th[hit_rows, None])
    hit, level = np.divmod(keep, depth)
    tail = scores[:, body:]
    t_rows, t_cols = np.divmod(
        np.flatnonzero((tail >= th[:, None]) & narrow[:, None]),
        max(cols - body, 1))
    cand_rows = np.concatenate([hit_rows[hit], t_rows])
    cand_cols = np.concatenate([hit_blocks[hit] + level * nb, t_cols + body])
    cand_vals = np.concatenate([values.ravel()[keep], tail[t_rows, t_cols]])
    order = np.lexsort((cand_cols, -cand_vals, cand_rows))
    counts = np.bincount(cand_rows, minlength=rows)
    starts = np.cumsum(counts) - counts
    full = counts >= kk
    out[full] = cand_cols[order[starts[full, None] + np.arange(kk)]]
    return np.flatnonzero(~full)
