"""Deterministic partition of the image space + exact top-k merge.

The scale-out contract in two halves:

**Partition** — image repository position ``p`` is owned by shard
``p % count``.  Round-robin by *position* (not id hashing) because it
is balanced to within one image by construction, needs no coordination,
and every worker can compute it locally from nothing but ``(count,
slot)``.  The partition reaches encoding: a shard worker (same
matcher, same seed) runs the image tower over its owned positions
only.  Its scoring operand keeps the unsharded shape — owned rows
filled, the rest zero — because BLAS picks its kernel by shape, and a
product against the owned rows alone can differ from the same columns
of the whole product in the last bit (DESIGN.md §14).  It then selects
among its owned positions only, so the per-image scores on any two
shards are the same float32 bits the unsharded service would produce.

**Merge** — the router concatenates per-shard match lists and re-sorts
by ``(-score, image id)``: the one total order every served path uses
(``MatchService._top`` hands the ids to
:func:`repro.index.topk.deterministic_topk` as its tie-break), and the
only one a router can apply, since ids are what is on the wire.
Position would not do: ``vision/image.py`` assigns ids and *then*
shuffles the repository, so position order and id order disagree, and
under an exact score tie (duplicate images) a position-ordered shard
and an id-ordered merge give a different answer than one process
(DESIGN.md §14).  Together: disjoint owned sets that cover every
position + bitwise-equal scores + the same tie order everywhere ⇒ the
merged top-k is bit-identical to the single-process answer whenever
every shard answers, with no assumption about the repository.

This module must stay import-free of the rest of ``repro`` (the serve
layer imports it lazily for its owned positions; a cycle here would
deadlock package init).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["owned_positions", "merge_matches"]


def owned_positions(total: int, count: int, slot: int) -> np.ndarray:
    """Repository positions shard ``slot`` of ``count`` answers for."""
    if total < 0:
        raise ValueError("total must be non-negative")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0 <= slot < count:
        raise ValueError(f"slot must be in [0, {count}), got {slot}")
    return np.arange(slot, total, count, dtype=np.int64)


def merge_matches(per_shard: Sequence[Sequence[dict]],
                  top_k: int) -> List[dict]:
    """Cross-shard top-k: concatenate and re-sort by ``(-score, id)``.

    Match dicts pass through untouched (the shards already formatted
    them), so the merged list is made of the exact objects a
    single-process server would have emitted — the router adds nothing
    that could perturb byte-identity.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    pool: List[dict] = []
    for matches in per_shard:
        pool.extend(matches)
    pool.sort(key=lambda match: (-float(match["score"]),
                                 int(match["image"])))
    return pool[:top_k]
