"""Golden reference for the probed search of :class:`repro.index.IVFPQIndex`.

``search_probed`` is ``IVFPQIndex._search_probed`` as it stood before
the ADC scan became subspace-major gathers and the shortlist and
re-rank cuts became one call each for the batch: a query-major LUT, one
``(candidates, pq_m)`` int64 flat gather summed with ``sum(axis=1)``,
one ``argpartition`` per query, a stable ``argsort`` re-rank and a
recall proxy counted with Python sets.  It is copied verbatim (``self``
is the index), so ids, scores and the probe telemetry of the kernel
must be ``np.array_equal`` to it on every query that is not NaN.
"""

from __future__ import annotations

import numpy as np

from repro.index.ivfpq import SearchResult, _pad_subspaces
from repro.index.topk import padded_topk_rows

__all__ = ["search_probed"]


def search_probed(self, queries: np.ndarray, kk: int, nprobe: int,
                  refine: int) -> SearchResult:
    nq = len(queries)
    ids = np.full((nq, kk), -1, dtype=np.int64)
    scores = np.full((nq, kk), -np.inf, dtype=np.float32)
    probes = np.zeros(nq, dtype=np.int64)
    candidates = np.zeros(nq, dtype=np.int64)
    shortlists = np.zeros(nq, dtype=np.int64)
    # The whole batch's coarse scores, probe choices, ADC LUTs and
    # candidate gathers run as a handful of large numpy ops; only
    # shortlist selection and the exact re-rank stay per-query.
    coarse = queries @ self.centroids.T            # (nq, nlist)
    # Probe choice: O(nlist) row-wise argpartition, then a stable
    # sort of just the nprobe winners so cells scan best-first.
    # (Boundary ties are pivot-resolved — harmless, they only pick
    # which cells get scanned; the *returned* ordering stays pinned
    # by the exact re-rank.)
    if nprobe < self.nlist:
        head = np.argpartition(-coarse, nprobe - 1, axis=1)[:, :nprobe]
    else:
        head = np.tile(np.arange(self.nlist), (nq, 1))
    head_scores = np.take_along_axis(coarse, head, axis=1)
    probe_order = np.take_along_axis(
        head, np.argsort(-head_scores, axis=1, kind="stable"), axis=1)
    padded = _pad_subspaces(queries, self.padded_dim)
    subqueries = padded.reshape(nq, self.pq_m, self.sub_dim)
    # (nq, m, ksub): LUT[q, j, c] = q_j · codebook_j[c] — built as
    # pq_m BLAS matmuls, then laid out query-major for the flat
    # per-candidate gather below.
    luts = np.ascontiguousarray(
        np.matmul(subqueries.transpose(1, 0, 2),
                  self.codebooks.transpose(0, 2, 1)).transpose(1, 0, 2))
    ksub = self.codebooks.shape[1]
    code_cols = np.arange(self.pq_m, dtype=np.int64) * ksub
    offsets = np.asarray(self.list_offsets)
    lo = offsets[probe_order]                      # (nq, nprobe)
    sizes = offsets[probe_order + 1] - lo
    totals = sizes.sum(axis=1)
    seg_off = np.zeros(nq + 1, dtype=np.int64)
    np.cumsum(totals, out=seg_off[1:])
    grand = int(seg_off[-1])
    # Concatenate every query's probed [lo, hi) ranges in one
    # repeat+arange gather instead of a per-list python loop.
    lens_flat = sizes.ravel()
    shifts = lo.ravel() - (np.cumsum(lens_flat) - lens_flat)
    cand_pos = np.repeat(shifts, lens_flat) + np.arange(grand)
    cand_ids = np.asarray(self.list_ids)[cand_pos]
    cand_codes = np.asarray(self.list_codes)[cand_pos]
    base = np.repeat(
        coarse[np.arange(nq)[:, None], probe_order].ravel(), lens_flat)
    query_of = np.repeat(np.arange(nq, dtype=np.int64), totals)
    # The ADC scan for every candidate of every query: pq_m
    # flat-LUT lookups each, one fused gather + row sum.
    flat_index = cand_codes + (query_of * (self.pq_m * ksub))[:, None]
    flat_index += code_cols
    adc = base + luts.ravel()[flat_index].sum(axis=1)
    probes[:] = nprobe
    candidates[:] = totals
    # Shortlist selection: one argpartition per query (the only
    # inherently per-query step — segment lengths vary), collected
    # into a PAD-padded matrix so the exact re-rank can batch.
    pad_id = np.int64(np.iinfo(np.int64).max)
    take_cap = max(refine * kk, kk)
    take_max = int(min(take_cap, totals.max())) if nq else 0
    shortmat = np.full((nq, take_max), pad_id, dtype=np.int64)
    adcmat = np.full((nq, take_max), -np.inf, dtype=np.float32)
    done = np.zeros(nq, dtype=bool)
    escalate = []
    agreement, scored = 0.0, 0
    for q in range(nq):
        seg_lo, seg_hi = int(seg_off[q]), int(seg_off[q + 1])
        if seg_hi - seg_lo < kk:
            # The probed cells held fewer candidates than k —
            # empty or skewed lists after coarse assignment.
            # Escalate this query to an exact exhaustive scan
            # rather than answer short.
            done[q] = True
            if self.count:
                escalate.append(q)
            continue
        adc_seg = adc[seg_lo:seg_hi]
        take = min(take_cap, seg_hi - seg_lo)
        if take < len(adc_seg):
            head = (-adc_seg).argpartition(take - 1)[:take]
        else:
            head = np.arange(len(adc_seg))
        shortmat[q, :take] = cand_ids[seg_lo + head]
        adcmat[q, :take] = adc_seg[head]
        shortlists[q] = take
    if escalate:
        esc = np.asarray(escalate, dtype=np.int64)
        # Exact inner products, but not brute force's bits: a BLAS
        # picks its kernel by the row count, and OpenBLAS 0.3.31
        # rounds a few-row product differently from the same rows
        # of the full batch's.  What holds is that each escalated
        # row equals the same row of one >= 2-row GEMM over the
        # escalated sub-batch; a lone row is doubled, so it never
        # takes the GEMV path, whose sums differ again.
        rows = esc if len(esc) > 1 else np.concatenate([esc, esc])
        exact = (queries[rows] @ self._full_matrix().T)[:len(esc)]
        # A row with fewer than k comparable scores (a NaN query's)
        # has no full answer: it keeps what deterministic_topk
        # returns and the -1 / -inf padding past it.
        ids[esc], scores[esc] = padded_topk_rows(exact, kk)
        probes[esc] = self.nlist
        candidates[esc] = shortlists[esc] = self.count
        agreement += float(len(esc))
        scored += len(esc)
    live = ~done
    if take_max and live.any():
        # Batched exact re-rank.  Rows are sorted ascending by id
        # (PAD sorts last), so the stable argsort on -scores breaks
        # ties toward the lower vector id — the same total order
        # deterministic_topk pins, now one call for the batch.
        order_ids = np.sort(shortmat, axis=1)
        gathered = self._take(
            np.minimum(order_ids, self.count - 1).ravel()
        ).reshape(nq, take_max, self.dim)
        exact = (gathered @ queries[:, :, None])[:, :, 0]
        exact[order_ids == pad_id] = -np.inf
        top = np.argsort(-exact, axis=1, kind="stable")[:, :kk]
        sel_ids = np.take_along_axis(order_ids, top, axis=1)
        sel_scores = np.take_along_axis(exact, top, axis=1)
        valid = sel_ids != pad_id
        # sel_* can be narrower than kk when fewer than kk
        # candidates were probed; the tail keeps its -1 / -inf pad.
        width = sel_ids.shape[1]
        full_ids = np.full((nq, kk), -1, dtype=np.int64)
        full_scores = np.full((nq, kk), -np.inf, dtype=np.float32)
        full_ids[:, :width] = np.where(valid, sel_ids, -1)
        full_scores[:, :width] = np.where(valid, sel_scores, -np.inf)
        ids[live] = full_ids[live]
        scores[live] = full_scores[live]
        # Recall proxy: how much of the exact top-k the raw ADC
        # ranking already had, per live query.
        adc_order = np.argsort(-adcmat, axis=1, kind="stable")[:, :kk]
        adc_head = np.take_along_axis(shortmat, adc_order, axis=1)
        for q in np.flatnonzero(live):
            found = int(valid[q].sum())
            if found:
                agreement += len(
                    set(adc_head[q, :found].tolist())
                    & set(ids[q, :found].tolist())) / found
                scored += 1
    return SearchResult(
        ids=ids, scores=scores, probes=probes, candidates=candidates,
        shortlists=shortlists,
        recall_proxy=agreement / scored if scored else 1.0)
