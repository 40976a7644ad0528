"""IVF-PQ — the numpy-native sublinear retrieval index.

CrossEM's matching step is a max-inner-product search: every query (a
prompted text embedding) against every frozen image-tower embedding.
Brute force is one O(|V|·|I|·d) GEMM — exact, and fatal at repository
scale.  This module trades a *bounded, measured* amount of recall for
an asymptotic win, in the classic two-stage shape:

1. **IVF coarse quantization** — the repository is partitioned into
   ``nlist`` cells by k-means (the vectorized
   :func:`repro.core.minibatch.kmeans`, reused as the trainer).  A
   query scores the ``nlist`` centroids and probes only the ``nprobe``
   best cells: the scan touches ``~ nprobe/nlist`` of the data.
2. **PQ + ADC scan** — within cells, vectors are stored as ``pq_m``
   uint8 codes over per-subspace codebooks trained on coarse
   *residuals*.  A query builds one ``(pq_m, 2^pq_bits)`` lookup table
   of partial dot products; scoring a candidate is then ``pq_m`` table
   lookups instead of a ``d``-wide dot — the asymmetric-distance
   (ADC) estimate ``q·c_cell + Σ_j LUT[j, code_j]``, which is exact in
   the query and quantized only in the stored vector.

The ADC scores build a shortlist (``refine × k`` candidates) that is
**re-ranked exactly** against the full-precision embeddings, with ties
broken by ``(-score, vector id)`` via
:func:`~repro.index.topk.deterministic_topk`.  The exactness boundary
is therefore clean: *which* candidates reach the shortlist is
approximate; the scores and order of everything returned are exact.
With ``nprobe >= nlist`` the index skips ADC entirely and scores every
vector with the same GEMM brute force uses — bit-identical to the
oracle, which is what makes ``recall@k`` measurable at all (see
DESIGN.md §12).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.minibatch import BLOCK_SIZE, kmeans
from ..nn.init import rng_from
from ..obs import get_logger, registry, span
from ..obs.trace import add_trace_event
from .store import EmbeddingStore, ShardReader, write_shard
from .topk import deterministic_topk_rows, padded_topk_rows

__all__ = ["IVFPQConfig", "IVFPQIndex", "SearchResult", "build_ivfpq",
           "save_index", "load_index"]

_log = get_logger("repro.index.ivfpq")

INDEX_KIND = "ivfpq"
#: the shortlist key past a row's candidates; it sorts after every id
_PAD = np.int64(np.iinfo(np.int64).max)


@dataclasses.dataclass
class IVFPQConfig:
    """Build/search knobs of the IVF-PQ index.

    ``nlist`` cells, ``nprobe`` probed per query; ``pq_m`` subspaces of
    ``2**pq_bits`` codewords each (``pq_bits <= 8`` so codes stay
    uint8); ``refine * k`` ADC candidates survive into the exact
    re-rank.  ``train_sample`` caps the vectors the quantizers are
    trained on so builds stay near-linear on huge repositories.
    """

    nlist: int = 64
    nprobe: int = 8
    pq_m: int = 8
    pq_bits: int = 8
    refine: int = 8
    kmeans_iterations: int = 15
    train_sample: int = 16384
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nlist < 1:
            raise ValueError("nlist must be at least 1")
        if self.nprobe < 1:
            raise ValueError("nprobe must be at least 1")
        if self.pq_m < 1:
            raise ValueError("pq_m must be at least 1")
        if not 1 <= self.pq_bits <= 8:
            raise ValueError("pq_bits must be in [1, 8] (uint8 codes)")
        if self.refine < 1:
            raise ValueError("refine must be at least 1")
        if self.train_sample < 2:
            raise ValueError("train_sample must be at least 2")


@dataclasses.dataclass
class SearchResult:
    """Batched search output.  ``ids``/``scores`` are ``(nq, k)`` with
    ``-1`` ids (and ``-inf`` scores) padding queries that found fewer
    than ``k`` vectors.  The remaining fields are per-query probe
    telemetry plus the batch's re-rank agreement proxy."""

    ids: np.ndarray
    scores: np.ndarray
    probes: np.ndarray
    candidates: np.ndarray
    shortlists: np.ndarray
    #: fraction of the final top-k the raw ADC ordering already had —
    #: a cheap online proxy for shortlist adequacy (1.0 means the
    #: re-rank only confirmed the ADC order)
    recall_proxy: float
    exhaustive: bool = False


def _centroids_from_labels(points: np.ndarray,
                           labels: np.ndarray) -> np.ndarray:
    """Per-cluster means in float32.  A label kmeans left unused (two
    clusters emptied together share one reseed) gets a zero centroid."""
    k = int(labels.max()) + 1 if len(labels) else 0
    centroids = np.zeros((k, points.shape[1]), dtype=np.float64)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    np.add.at(centroids, labels, points.astype(np.float64))
    centroids /= np.maximum(counts, 1.0)[:, None]
    return centroids.astype(np.float32)


def _assign_nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels via the ``‖x‖²+‖c‖²−2x·cᵀ`` expansion
    (ties toward the lower centroid id, matching argmin)."""
    dots = points @ centroids.T
    c_norms = (centroids.astype(np.float64) ** 2).sum(axis=1)
    p_norms = (points.astype(np.float64) ** 2).sum(axis=1)
    labels = np.empty(len(points), dtype=np.int64)
    step = max(1, BLOCK_SIZE // len(centroids))
    for lo in range(0, len(points), step):
        rows = slice(lo, lo + step)
        labels[rows] = (p_norms[rows, None] + c_norms[None, :]
                        - 2.0 * dots[rows]).argmin(axis=1)
    return labels


def _pad_subspaces(matrix: np.ndarray, padded_dim: int) -> np.ndarray:
    if matrix.shape[1] == padded_dim:
        return matrix
    out = np.zeros((matrix.shape[0], padded_dim), dtype=np.float32)
    out[:, :matrix.shape[1]] = matrix
    return out


def _pairwise_rows(rows: np.ndarray) -> np.ndarray:
    """Column sums of an ``(m, n)`` float array in numpy's pairwise
    order, so ``_pairwise_rows(a.T.copy())`` is bit-identical to
    ``a.sum(axis=1)`` for a C-contiguous ``a``: below 8 rows a running
    sum; up to 128, eight accumulators folded ``((0+1)+(2+3))+((4+5)+
    (6+7))``, then the tail in sequence; above that, the two halves
    split on a multiple of 8.  It sums in place, overwriting ``rows``."""
    m = len(rows)
    if m < 8:
        for row in rows[1:]:
            rows[0] += row
        return rows[0]
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _pairwise_rows(rows[:half]) + _pairwise_rows(rows[half:])
    body = m - m % 8
    acc = rows[:8]
    for lo in range(8, body, 8):
        acc += rows[lo:lo + 8]
    np.add(acc[0::2], acc[1::2], out=acc[0::2])
    np.add(acc[0::4], acc[2::4], out=acc[0::4])
    total = acc[0]
    total += acc[4]
    for row in rows[body:]:
        total += row
    return total


def build_ivfpq(embeddings: np.ndarray,
                config: Optional[IVFPQConfig] = None) -> "IVFPQIndex":
    """Train coarse + product quantizers on ``embeddings`` and encode
    every vector into its inverted list.  Deterministic under
    ``config.seed``."""
    config = config or IVFPQConfig()
    embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
    if embeddings.ndim != 2 or len(embeddings) < 2:
        raise ValueError("index needs a (n >= 2, dim) embedding matrix")
    n, dim = embeddings.shape
    rng = rng_from(config.seed)
    reg = registry()
    with span("index/build"):
        # -- training sample (build stays near-linear on huge inputs)
        if n > config.train_sample:
            sample_rows = np.sort(rng.choice(n, size=config.train_sample,
                                             replace=False))
            sample = embeddings[sample_rows]
        else:
            sample = embeddings
        # -- coarse quantizer: the shared vectorized k-means
        with span("index/build_coarse"):
            nlist = min(config.nlist, len(sample))
            labels = kmeans(sample, nlist, rng=rng,
                            iterations=config.kmeans_iterations)
            centroids = _centroids_from_labels(sample, labels)
            assignment = _assign_nearest(embeddings, centroids)
        # -- product quantizer over coarse residuals
        with span("index/build_pq"):
            pq_m = min(config.pq_m, dim)
            sub_dim = -(-dim // pq_m)  # ceil: dim zero-padded to m*sub
            padded_dim = sub_dim * pq_m
            residuals = _pad_subspaces(
                embeddings - centroids[assignment], padded_dim)
            sample_residuals = residuals[sample_rows] \
                if n > config.train_sample else residuals
            ksub = min(2 ** config.pq_bits, len(sample_residuals))
            codebooks = np.zeros((pq_m, ksub, sub_dim), dtype=np.float32)
            codes = np.zeros((n, pq_m), dtype=np.uint8)
            dots = np.empty((n, ksub), dtype=np.float32)
            step = max(1, BLOCK_SIZE // ksub)
            for j in range(pq_m):
                lo, hi = j * sub_dim, (j + 1) * sub_dim
                sub_labels = kmeans(sample_residuals[:, lo:hi], ksub,
                                    rng=rng,
                                    iterations=config.kmeans_iterations)
                book = _centroids_from_labels(sample_residuals[:, lo:hi],
                                              sub_labels)
                codebooks[j, :len(book)] = book
                # encode: argmin ‖r−c‖² == argmin (‖c‖² − 2 r·c)
                np.matmul(residuals[:, lo:hi], codebooks[j].T, out=dots)
                c_norms = (codebooks[j].astype(np.float64) ** 2).sum(axis=1)
                for row in range(0, n, step):
                    twice = dots[row:row + step]
                    twice *= 2.0
                    codes[row:row + step, j] = (
                        c_norms[None, :] - twice).argmin(axis=1)
        # -- inverted lists (CSR; ids ascending within each list)
        order = np.argsort(assignment, kind="stable")
        list_sizes = np.bincount(assignment, minlength=len(centroids))
        offsets = np.zeros(len(centroids) + 1, dtype=np.int64)
        np.cumsum(list_sizes, out=offsets[1:])
        index = IVFPQIndex(
            centroids=centroids, codebooks=codebooks,
            list_offsets=offsets, list_ids=order.astype(np.int64),
            list_codes=codes[order], embeddings=embeddings,
            nprobe=config.nprobe, refine=config.refine,
            meta={"seed": config.seed,
                  "train_sample": int(min(config.train_sample, n))})
    empties = int((list_sizes == 0).sum())
    reg.counter("index.build").inc()
    reg.gauge("index.lists.empty").set(empties)
    _log.info("ivfpq index built", vectors=n, dim=dim,
              nlist=len(centroids), pq_m=pq_m, ksub=ksub,
              empty_lists=empties)
    return index


class IVFPQIndex:
    """A built IVF-PQ index plus its exact re-rank source.

    ``embeddings`` is either an in-memory ``(count, dim)`` float32
    matrix (fresh build) or an :class:`~repro.index.store.EmbeddingStore`
    (loaded shard) — re-rank only ever *takes* shortlist rows from it,
    so a memory-mapped store never gets materialized.
    """

    def __init__(self, *, centroids: np.ndarray, codebooks: np.ndarray,
                 list_offsets: np.ndarray, list_ids: np.ndarray,
                 list_codes: np.ndarray,
                 embeddings: Union[np.ndarray, EmbeddingStore],
                 nprobe: int = 8, refine: int = 8,
                 meta: Optional[dict] = None) -> None:
        self.centroids = np.asarray(centroids, dtype=np.float32)
        self.codebooks = np.asarray(codebooks, dtype=np.float32)
        self.list_offsets = np.asarray(list_offsets, dtype=np.int64)
        self.list_ids = list_ids
        self.list_codes = list_codes
        self._source = embeddings
        self.nprobe = int(nprobe)
        self.refine = int(refine)
        self.meta = dict(meta or {})
        if isinstance(embeddings, EmbeddingStore):
            self.count, self.dim = embeddings.count, embeddings.dim
        else:
            self.count, self.dim = embeddings.shape
        self.nlist = len(self.centroids)
        self.pq_m = self.codebooks.shape[0]
        self.sub_dim = self.codebooks.shape[2]
        self.padded_dim = self.pq_m * self.sub_dim

    # -- re-rank operand access ------------------------------------------
    def _take(self, rows: np.ndarray) -> np.ndarray:
        if isinstance(self._source, EmbeddingStore):
            return self._source.take(rows)
        return np.take(self._source, rows, axis=0)

    def _full_matrix(self) -> np.ndarray:
        """The whole repository (memmap view for stores) — only the
        exhaustive fallback touches this."""
        if isinstance(self._source, EmbeddingStore):
            return self._source.full
        return self._source

    # -- search -----------------------------------------------------------
    def search(self, queries: np.ndarray, k: int,
               nprobe: Optional[int] = None,
               refine: Optional[int] = None) -> SearchResult:
        """Batched top-``k`` max-inner-product search.

        Per query: probe the ``nprobe`` best cells, ADC-scan their
        codes through the LUT, exact-re-rank the ``refine * k``
        shortlist.  ``nprobe >= nlist`` falls back to scoring every
        vector exactly with the same GEMM shape brute force uses —
        bit-identical to the oracle.
        """
        queries = np.ascontiguousarray(np.atleast_2d(queries),
                                       dtype=np.float32)
        nq = queries.shape[0]
        kk = max(0, min(k, self.count))
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        refine = self.refine if refine is None else int(refine)
        reg = registry()
        if nprobe >= self.nlist:
            with span("index/search_exhaustive"):
                result = self._search_exhaustive(queries, kk)
        else:
            with span("index/search"):
                result = self._search_probed(queries, kk, nprobe, refine)
        reg.counter("index.queries").inc(nq)
        # Histograms see per-batch means: one observation per search
        # call keeps telemetry off the per-query hot path.
        if nq:
            reg.histogram("index.probe.lists").observe(
                float(result.probes.mean()))
            reg.histogram("index.probe.candidates").observe(
                float(result.candidates.mean()))
            reg.histogram("index.shortlist").observe(
                float(result.shortlists.mean()))
        reg.gauge("index.recall_proxy").set(result.recall_proxy)
        add_trace_event("index", queries=nq, k=kk,
                        probes=int(result.probes.sum()),
                        candidates=int(result.candidates.sum()),
                        shortlist=int(result.shortlists.sum()),
                        recall_proxy=round(result.recall_proxy, 4),
                        exhaustive=result.exhaustive)
        return result

    def _search_exhaustive(self, queries: np.ndarray,
                           kk: int) -> SearchResult:
        # One (nq, d) x (d, n) GEMM — the same operation (and therefore
        # the same BLAS rounding) as CrossEM.score's brute force, so
        # the returned ordering is bit-identical to the oracle's.
        scores = queries @ self._full_matrix().T
        ids = deterministic_topk_rows(scores, kk)
        n = np.int64(self.count)
        return SearchResult(
            ids=ids, scores=np.take_along_axis(scores, ids, axis=1),
            probes=np.full(len(queries), self.nlist, dtype=np.int64),
            candidates=np.full(len(queries), n, dtype=np.int64),
            shortlists=np.full(len(queries), n, dtype=np.int64),
            recall_proxy=1.0, exhaustive=True)

    def _search_probed(self, queries: np.ndarray, kk: int, nprobe: int,
                       refine: int) -> SearchResult:
        # Every step past the coarse GEMM is a few numpy calls for the
        # whole batch (DESIGN.md §12 has the layout and the stage times).
        nq = len(queries)
        ksub = self.codebooks.shape[1]
        coarse = queries @ self.centroids.T            # (nq, nlist)
        # Probe choice: O(nlist) row-wise argpartition, then a stable
        # sort of just the nprobe winners so cells scan best-first.
        # (Boundary ties are pivot-resolved — harmless, they only pick
        # which cells get scanned; the *returned* ordering stays pinned
        # by the exact re-rank.)
        rows = np.arange(nq)[:, None]
        head = np.argpartition(-coarse, nprobe - 1, axis=1)[:, :nprobe]
        probe_order = head[rows, np.argsort(-coarse[rows, head], axis=1,
                                            kind="stable")]
        subqueries = _pad_subspaces(queries, self.padded_dim).reshape(
            nq, self.pq_m, self.sub_dim)
        # (pq_m, nq, ksub): LUT[j, q, c] = q_j · codebook_j[c], pq_m BLAS
        # matmuls laid out subspace-major, as the ADC gather reads it.
        luts = np.matmul(subqueries.transpose(1, 0, 2),
                         self.codebooks.transpose(0, 2, 1))
        lo = self.list_offsets[probe_order]            # (nq, nprobe)
        sizes = self.list_offsets[probe_order + 1] - lo
        totals = sizes.sum(axis=1)
        seg_off = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(totals, out=seg_off[1:])
        grand = int(seg_off[-1])
        # Concatenate every query's probed [lo, hi) ranges in one
        # repeat+arange gather instead of a per-list python loop.
        lens_flat = sizes.ravel()
        shifts = lo.ravel() - (np.cumsum(lens_flat) - lens_flat)
        cand_pos = np.repeat(shifts, lens_flat) + np.arange(grand)
        base = np.repeat(coarse[rows, probe_order].ravel(), lens_flat)
        # The ADC scan, subspace-major: one (pq_m, candidates) index into
        # the flat LUT (code + query offset + subspace offset), one
        # gather, and the pq_m rows summed in sum(axis=1)'s pairwise
        # order.
        lut_index = np.repeat(np.arange(nq) * ksub, totals) \
            + (np.arange(self.pq_m) * (nq * ksub))[:, None]
        lut_index += np.take(self.list_codes, cand_pos, axis=0).T
        adc = _pairwise_rows(luts.ravel()[lut_index])
        adc += base
        take_cap = max(refine * kk, kk)
        live = totals >= kk
        probes = np.where(live, nprobe, self.nlist)
        candidates = np.where(live, totals, self.count)
        shortlists = np.where(live, np.minimum(totals, take_cap), self.count)
        agreement, scored = 0.0, 0
        if kk and live.any():
            ids, scores, hits, found = self._rerank(
                queries, kk, take_cap, adc, totals, seg_off, cand_pos)
            scored_rows = live & (found > 0)
            agreement = float((hits[scored_rows] / found[scored_rows]).sum())
            scored = int(np.count_nonzero(scored_rows))
        else:
            ids = np.full((nq, kk), -1, dtype=np.int64)
            scores = np.full((nq, kk), -np.inf, dtype=np.float32)
        # The probed cells of a row below k candidates (empty or skewed
        # lists after coarse assignment) escalate to an exact scan.
        esc = np.flatnonzero(~live)
        if len(esc):
            # Exact inner products, but not brute force's bits: a BLAS
            # picks its kernel by the row count, and OpenBLAS 0.3.31
            # rounds a few-row product differently from the same rows
            # of the full batch's.  What holds is that each escalated
            # row equals the same row of one >= 2-row GEMM over the
            # escalated sub-batch; a lone row is doubled, so it never
            # takes the GEMV path, whose sums differ again.
            twice = esc if len(esc) > 1 else np.concatenate([esc, esc])
            exact = (queries[twice] @ self._full_matrix().T)[:len(esc)]
            # A row with fewer than k comparable scores (a NaN query's)
            # has no full answer: it keeps what deterministic_topk
            # returns and the -1 / -inf padding past it.
            ids[esc], scores[esc] = padded_topk_rows(exact, kk)
            agreement += float(len(esc))
            scored += len(esc)
        return SearchResult(
            ids=ids, scores=scores, probes=probes, candidates=candidates,
            shortlists=shortlists,
            recall_proxy=agreement / scored if scored else 1.0)

    def _rerank(self, queries: np.ndarray, kk: int, take_cap: int,
                adc: np.ndarray, totals: np.ndarray, seg_off: np.ndarray,
                cand_pos: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shortlist every row's ``take_cap`` best ADC scores and
        re-rank them exactly: ``(ids, scores, hits, found)``, where
        ``hits`` of a row's ``found`` answers were in its ADC top k.
        A row below k candidates gets an answer the caller replaces."""
        nq = len(queries)
        rows = np.arange(nq)[:, None]
        width = int(totals.max())
        take_max = min(take_cap, width)
        # Every row's negated ADC scores in one +inf-padded matrix, one
        # argpartition for the batch.
        neg = np.full((nq, width), np.inf, dtype=np.float32)
        neg.ravel()[np.arange(len(adc)) + np.repeat(
            np.arange(nq) * width - seg_off[:-1], totals)] = -adc
        pos = np.argpartition(neg, take_max - 1, axis=1)[:, :take_max]
        short_neg = neg[rows, pos]
        # The recall proxy's ADC head: each row's k best ADC scores.
        adc_head = short_neg <= np.partition(short_neg, kk - 1,
                                             axis=1)[:, kk - 1:kk]
        # Where a tie straddles the shortlist cut or the k-th place, the
        # set or the head is introselect's choice on the row alone, so
        # such a row is cut again exactly as a lone row would be.
        ragged = (totals > take_max) & (np.count_nonzero(
            neg <= short_neg[:, -1:], axis=1) > take_max)
        ragged |= np.count_nonzero(adc_head, axis=1) != kk
        for q in np.flatnonzero(ragged & (totals >= kk)):
            adc_seg = adc[seg_off[q]:seg_off[q + 1]]
            take = min(take_cap, len(adc_seg))
            if take < len(adc_seg):
                row = (-adc_seg).argpartition(take - 1)[:take]
            else:
                row = np.arange(len(adc_seg))
            pos[q, :take] = row
            pos[q, take:] = len(adc_seg)
            adc_head[q] = False
            adc_head[q, np.argsort(-adc_seg[row], kind="stable")[:kk]] = True
        # Keys ``id << 1 | not-in-head``, PAD past a row's shortlist:
        # sorted, they order each row by id (PAD last), so the
        # (-score, column) cut is the (-score, vector id) order, and
        # every selected key still says whether the ADC head held it.
        keys = np.asarray(self.list_ids)[cand_pos[np.minimum(
            seg_off[:-1, None] + pos, len(adc) - 1)]] << 1 | ~adc_head
        keys = np.sort(np.where(pos < totals[:, None], keys, _PAD), axis=1)
        gathered = self._take(
            np.minimum(keys >> 1, self.count - 1).ravel()
        ).reshape(nq, take_max, self.dim)
        exact = (gathered @ queries[:, :, None])[:, :, 0]
        exact[keys == _PAD] = -np.inf
        cols, scores = padded_topk_rows(exact, kk)
        chosen = keys[rows, cols]
        valid = (cols >= 0) & (chosen != _PAD)
        return (np.where(valid, chosen >> 1, -1), scores,
                np.count_nonzero(valid & (chosen & 1 == 0), axis=1),
                np.count_nonzero(valid, axis=1))

    # -- introspection -----------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Occupancy and shape stats (the ``repro index stats`` body)."""
        sizes = np.diff(self.list_offsets)
        return {
            "kind": INDEX_KIND,
            "vectors": int(self.count),
            "dim": int(self.dim),
            "nlist": int(self.nlist),
            "nprobe": int(self.nprobe),
            "pq_m": int(self.pq_m),
            "pq_bits_used": int(np.ceil(np.log2(
                max(2, self.codebooks.shape[1])))),
            "ksub": int(self.codebooks.shape[1]),
            "refine": int(self.refine),
            "empty_lists": int((sizes == 0).sum()),
            "list_size_min": int(sizes.min()) if len(sizes) else 0,
            "list_size_mean": float(sizes.mean()) if len(sizes) else 0.0,
            "list_size_max": int(sizes.max()) if len(sizes) else 0,
            "code_bytes": int(np.asarray(self.list_codes).nbytes),
        }


# -- persistence -------------------------------------------------------------
_S_CENTROIDS = "coarse.centroids"
_S_CODEBOOKS = "pq.codebooks"
_S_OFFSETS = "lists.offsets"
_S_IDS = "lists.ids"
_S_CODES = "lists.codes"


def save_index(path, index: IVFPQIndex, meta: Optional[dict] = None):
    """Persist ``index`` (structure + full-precision and int8 embedding
    store) as one REPROIX1 shard; full-verifies the bytes after the
    atomic publish and returns the path."""
    embeddings = np.asarray(index._take(np.arange(index.count)),
                            dtype=np.float32)
    sections = {
        _S_CENTROIDS: index.centroids,
        _S_CODEBOOKS: index.codebooks,
        _S_OFFSETS: index.list_offsets,
        _S_IDS: np.asarray(index.list_ids, dtype=np.int64),
        _S_CODES: np.asarray(index.list_codes, dtype=np.uint8),
    }
    sections.update(EmbeddingStore.sections_for(embeddings))
    shard_meta = {"kind": INDEX_KIND, "count": index.count,
                  "dim": index.dim, "nlist": index.nlist,
                  "pq_m": index.pq_m, "nprobe": index.nprobe,
                  "refine": index.refine}
    shard_meta.update(index.meta)
    shard_meta.update(meta or {})
    written = write_shard(path, sections, shard_meta)
    # Re-open with a streamed digest check: the shard is an artifact
    # other processes will trust, so pay for full verification exactly
    # once, at publish time.
    ShardReader(written, verify="full")
    return written


def load_index(path, *, verify: str = "lazy",
               memory_budget_bytes: Optional[int] = None,
               nprobe: Optional[int] = None) -> IVFPQIndex:
    """Open a REPROIX1 index shard lazily: structure sections are
    memory-mapped, the embedding store only ever serves shortlist rows
    (or budget-guarded materializations).  ``nprobe`` overrides the
    persisted default."""
    reader = ShardReader(path, verify=verify)
    if reader.meta.get("kind") != INDEX_KIND:
        from .store import IndexShardCorruptError

        raise IndexShardCorruptError(
            f"shard {path} is not an {INDEX_KIND} index "
            f"(kind={reader.meta.get('kind')!r})")
    store = EmbeddingStore(reader, memory_budget_bytes=memory_budget_bytes)
    index = IVFPQIndex(
        centroids=np.asarray(reader.section(_S_CENTROIDS)),
        codebooks=np.asarray(reader.section(_S_CODEBOOKS)),
        list_offsets=np.asarray(reader.section(_S_OFFSETS)),
        list_ids=reader.section(_S_IDS),
        list_codes=reader.section(_S_CODES),
        embeddings=store,
        nprobe=int(nprobe if nprobe is not None
                   else reader.meta.get("nprobe", 8)),
        refine=int(reader.meta.get("refine", 8)),
        meta=reader.meta)
    registry().counter("index.load").inc()
    return index
