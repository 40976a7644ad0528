"""The probed IVF-PQ search against its oracle.

``IVFPQIndex._search_probed`` scans the ADC codes subspace-major, cuts
every row's shortlist with one ``argpartition`` and re-ranks the batch
with one ``padded_topk_rows``; ``tests/oracles/ivfpq_search.py`` is the
per-query path it replaced.  On every world — ties in the ADC scores
included, where the shortlist boundary is introselect's choice — ids,
scores and the probe telemetry must be ``np.array_equal`` to the
oracle's and the recall proxy equal to 1e-12.  A NaN query is the one
departure: it answers ``-1`` / ``-inf`` (the oracle could return real
ids with NaN scores)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IVFPQConfig, build_ivfpq, load_index, save_index
from repro.index.ivfpq import IVFPQIndex, _pairwise_rows
from tests.oracles.ivfpq_search import search_probed

FIELDS = ("ids", "scores", "probes", "candidates", "shortlists")
WORLDS = ("clustered", "duplicates", "skewed", "lattice")


def make_world(kind, n, dim, nq, seed):
    """``(points, queries)``: ``duplicates`` and ``lattice`` tie ADC
    scores and leave k-means labels (so inverted lists) empty;
    ``skewed`` piles most points on one centre, so a query probing the
    sparse cells has fewer than k candidates and escalates."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((12, dim))
    if kind == "duplicates":
        points = np.repeat(rng.standard_normal((n // 10 + 1, dim)), 10,
                           axis=0)[:n]
    elif kind == "lattice":
        points = rng.integers(0, 3, size=(n, dim)) / 10.0
    else:
        weights = None
        if kind == "skewed":
            weights = np.full(12, 0.02)
            weights[0] = 1.0 - 0.02 * 11
        owner = rng.choice(12, size=n, p=weights)
        points = centres[owner] + 0.1 * rng.standard_normal((n, dim))
    queries = centres[rng.integers(0, 12, size=nq)] \
        + 0.2 * rng.standard_normal((nq, dim))
    return (np.ascontiguousarray(points, dtype=np.float32),
            np.ascontiguousarray(queries, dtype=np.float32))


def assert_matches_oracle(index, queries, k, nprobe, refine):
    got = index.search(queries, k, nprobe=nprobe, refine=refine)
    kk = max(0, min(k, index.count))
    want = search_probed(index, np.atleast_2d(queries), kk, nprobe, refine)
    assert not got.exhaustive
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name), err_msg=name)
    assert abs(got.recall_proxy - want.recall_proxy) <= 1e-12
    return got


@st.composite
def probed_case(draw):
    pq_m = draw(st.sampled_from([1, 3, 8, 16, 17]))
    nlist = draw(st.sampled_from([4, 8, 16]))
    return dict(
        kind=draw(st.sampled_from(WORLDS)),
        n=draw(st.integers(60, 400)),
        # dim % pq_m != 0 pads the last subspace with zeros
        dim=draw(st.integers(pq_m, 40)),
        nq=draw(st.sampled_from([1, 2, 3, 4, 256])),
        config=IVFPQConfig(nlist=nlist, pq_m=pq_m,
                           pq_bits=draw(st.sampled_from([1, 2, 4, 8])),
                           kmeans_iterations=3,
                           seed=draw(st.integers(0, 3))),
        nprobe=draw(st.integers(1, nlist - 1)),
        refine=draw(st.sampled_from([1, 2, 8])),
        # k above the probed candidate count escalates
        k=draw(st.sampled_from([1, 5, 10, 40, 300])),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(probed_case())
def test_probed_search_equals_oracle(case):
    points, queries = make_world(case["kind"], case["n"], case["dim"],
                                 case["nq"], case["seed"])
    index = build_ivfpq(points, case["config"])
    assert_matches_oracle(index, queries, case["k"], case["nprobe"],
                          case["refine"])


@settings(max_examples=15, deadline=None)
@given(probed_case())
def test_reopened_store_equals_oracle(case):
    """A memory-mapped reopen re-ranks through ``EmbeddingStore.take``
    and reads lists straight from the shard."""
    points, queries = make_world(case["kind"], case["n"], case["dim"],
                                 case["nq"], case["seed"])
    index = build_ivfpq(points, case["config"])
    with tempfile.TemporaryDirectory() as tmp:
        path = save_index(Path(tmp) / "index.reproix", index)
        reopened = load_index(path)
        got = assert_matches_oracle(reopened, queries, case["k"],
                                    case["nprobe"], case["refine"])
        # Every row equals the in-memory index's, escalated ones
        # included: their GEMM reads the mapped matrix in place, and
        # the shard's sections are 64-byte aligned in the file, so
        # numpy hands it to BLAS as it does the in-memory matrix.
        fresh = index.search(queries, case["k"], nprobe=case["nprobe"],
                             refine=case["refine"])
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(fresh, name),
                                          err_msg=name)
        nlist = case["config"].nlist
        got = reopened.search(queries, case["k"], nprobe=nlist)
        fresh = index.search(queries, case["k"], nprobe=nlist)
        assert got.exhaustive and fresh.exhaustive
        for name in ("ids", "scores"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(fresh, name),
                                          err_msg=f"exhaustive {name}")


def tie_index(n0, n1, seed=0):
    """A hand-built two-cell index whose cell 0 holds 10 ids coded 0 and
    ``n0 - 10`` coded 1: one ADC tie class straddling a 20-wide
    shortlist, whose members all score above the 10 in exact terms."""
    rng = np.random.default_rng(seed)
    n = n0 + n1
    embeddings = 0.01 * rng.standard_normal((n, 4)).astype(np.float32)
    embeddings[10:n0, 0] += 1.0 + rng.random(n0 - 10).astype(np.float32)
    codes = np.ones((n, 1), dtype=np.uint8)
    codes[:10] = 0
    codebooks = np.zeros((1, 2, 4), dtype=np.float32)
    codebooks[0, 0, 0] = 0.5
    return IVFPQIndex(centroids=np.eye(2, 4, dtype=np.float32),
                      codebooks=codebooks,
                      list_offsets=np.array([0, n0, n]),
                      list_ids=np.arange(n), list_codes=codes,
                      embeddings=embeddings, nprobe=1, refine=2)


@pytest.mark.parametrize("n0", [46, 81, 193])
def test_a_tie_across_the_shortlist_cut_keeps_introselects_choice(n0):
    """Which members of the tie class reach the shortlist is
    introselect's choice on the row alone; the second query's wider row
    pads this one in the batch, and a padded row picks differently."""
    index = tie_index(n0, 300)
    assert_matches_oracle(index, np.eye(2, 4, dtype=np.float32), 10,
                          nprobe=1, refine=2)


@pytest.mark.parametrize("nq", [0, 1, 2, 4, 64])
@pytest.mark.parametrize("k", [0, 1, 10])
def test_degenerate_batches_equal_oracle(nq, k):
    points, queries = make_world("clustered", 300, 16, nq, seed=3)
    index = build_ivfpq(points, IVFPQConfig(nlist=8, pq_m=4, seed=0))
    assert_matches_oracle(index, queries, k, nprobe=2, refine=2)


@pytest.mark.parametrize("nq", [1, 5])
def test_nan_query_answers_padding_and_spares_the_batch(nq):
    points, queries = make_world("lattice", 300, 16, nq + 3, seed=4)
    index = build_ivfpq(points, IVFPQConfig(nlist=8, pq_m=4, seed=0))
    queries[0] = np.nan
    queries[1, 3] = np.nan
    got = index.search(queries, 10, nprobe=3, refine=2)
    assert (got.ids[:2] == -1).all()
    assert np.isneginf(got.scores[:2]).all()
    want = search_probed(index, queries, 10, 3, 2)
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name)[2:],
                                      getattr(want, name)[2:], err_msg=name)


@pytest.mark.parametrize("m", list(range(1, 41)) + [128, 129, 200, 300])
def test_pairwise_rows_is_numpys_row_sum(m):
    """Values over eight decades make the order of the adds show: a
    running sum differs from numpy's pairwise sum on these rows."""
    rng = np.random.default_rng(m)
    terms = (rng.standard_normal((2000, m))
             * 10.0 ** rng.integers(-4, 4, size=(2000, m))).astype(np.float32)
    want = terms.sum(axis=1)
    np.testing.assert_array_equal(_pairwise_rows(terms.T.copy()), want)
    if m >= 9:
        running = terms[:, 0].copy()
        for column in terms.T[1:]:
            running += column
        assert not np.array_equal(running, want)


def test_index_bulk_shape_equals_oracle():
    """The benchmark's shape scaled down: 256 queries against 40 cells,
    16 subspaces of 256 codes, refine 16."""
    points, queries = make_world("clustered", 6000, 64, 256, seed=301)
    index = build_ivfpq(points, IVFPQConfig(nlist=40, pq_m=16, refine=16,
                                            kmeans_iterations=4))
    for nprobe in (1, 4, 16):
        assert_matches_oracle(index, queries, 10, nprobe, index.refine)
