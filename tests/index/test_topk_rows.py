"""The batched row cut against the per-row loop it replaced.

``deterministic_topk_rows`` cuts a batch by one block-maximum bound
instead of an ``argpartition`` per row; it must return, on every input,
exactly what ``tests/oracles/topk.py`` returns: the same ids in the
same ``(-score, index)`` order and the full tie class at the k-th value
resolved toward the lowest index.  A batch holding a row with fewer
than k comparable (non-NaN) values has no k-wide answer: there the
kernel raises a ``ValueError`` naming the row, which is not compared
with the oracle (the oracle returned NaN positions when ``k`` reached
the row length and raised an untyped broadcast error otherwise)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IVFPQConfig, build_ivfpq, deterministic_topk_rows
from repro.index import topk
from tests.oracles import topk as oracle

LAYOUTS = ("contiguous", "column_slice", "transpose", "reversed")
VALUES = ("normal", "rounded", "all_equal", "infinite", "nan",
          "sparse_nan")


def layout_view(rng, rows, cols, dtype, layout):
    """A ``(rows, cols)`` matrix of ``dtype`` in the given memory
    layout (every layout but ``contiguous`` is a non-contiguous view)."""
    if layout == "transpose":
        return rng.standard_normal((cols, rows)).astype(dtype).T
    if layout == "column_slice":
        base = rng.standard_normal((rows, cols + 7)).astype(dtype)
        return base[:, 3:3 + cols]
    if layout == "reversed":
        return rng.standard_normal((rows, cols)).astype(dtype)[:, ::-1]
    return rng.standard_normal((rows, cols)).astype(dtype)


def fill_values(rng, scores, kind):
    """Overwrite ``scores`` in place with a ``kind`` of value set."""
    if kind == "rounded":
        scores[...] = np.round(scores, int(rng.integers(0, 3)))
    elif kind == "all_equal":
        scores[...] = scores[:, :1] if scores.shape[1] else 0.0
    elif kind == "infinite":
        scores[rng.random(scores.shape) < 0.2] = np.inf
        scores[rng.random(scores.shape) < 0.2] = -np.inf
    elif kind == "nan":
        scores[...] = np.round(scores, 1)
        scores[rng.random(scores.shape) < rng.random()] = np.nan
    elif kind == "sparse_nan":
        # one or two NaN a row among heavy ties: the bound stays finite
        # and a block holding a NaN must still count its other members
        scores[...] = np.round(scores, 0)
        for row in scores:
            if len(row):
                row[rng.integers(0, len(row), size=2)] = np.nan


def outcome(fn, scores, k):
    try:
        return fn(scores, k)
    except ValueError:
        return ValueError


def assert_same_cut(scores, k):
    got = outcome(deterministic_topk_rows, scores, k)
    kk = max(0, min(k, scores.shape[1]))
    if (np.count_nonzero(~np.isnan(scores), axis=1) < kk).any():
        assert got is ValueError
        return
    want = oracle.deterministic_topk_rows(scores, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 24),
       cols=st.integers(0, 400), k_pick=st.integers(0, 5),
       dtype=st.sampled_from((np.float32, np.float64)),
       layout=st.sampled_from(LAYOUTS), kind=st.sampled_from(VALUES))
def test_rows_equal_the_oracle(seed, rows, cols, k_pick, dtype, layout,
                               kind):
    rng = np.random.default_rng(seed)
    scores = layout_view(rng, rows, cols, dtype, layout)
    fill_values(rng, scores, kind)
    # k in {0, 1, m - 1, m, m + 3}, or anywhere in between
    k = (0, 1, cols - 1, cols, cols + 3,
         int(rng.integers(0, cols + 1)))[k_pick]
    assert_same_cut(scores, k)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(4, 12),
       cols=st.integers(8, 200), k_share=st.floats(0.0, 0.2))
def test_blocks_holding_a_nan_still_count(seed, rows, cols, k_share):
    """Few NaN among heavy ties and a k well below m: the blocks are
    several columns deep, the bound stays finite, and a block holding a
    NaN may also hold the row's best value."""
    rng = np.random.default_rng(seed)
    scores = layout_view(rng, rows, cols, np.float64, "contiguous")
    fill_values(rng, scores, "sparse_nan")
    assert_same_cut(scores, max(2, int(k_share * cols)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(4, 40),
       cols=st.integers(1, 300), k=st.integers(1, 20),
       dtype=st.sampled_from((np.float32, np.float64)))
def test_untied_rows_are_cut_by_the_bound(seed, rows, cols, k, dtype):
    """Without NaN or tied block maxima every row has at least k values
    >= its bound and exactly k blocks reach it, so the batched cut
    answers all of them and none falls back."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((rows, cols)).astype(dtype)
    kk = min(k, cols)
    out = np.empty((rows, kk), dtype=np.int64)
    assert len(topk._cut_by_block_bound(scores, kk, out)) == 0
    np.testing.assert_array_equal(
        out, oracle.deterministic_topk_rows(scores, k))


def test_nan_rows_fall_back_and_stay_exact():
    """A row whose bound is NaN (too many all-NaN blocks) or that keeps
    fewer than k candidates is cut by the 1-D function; every other row
    of the same batch by the bound."""
    rng = np.random.default_rng(11)
    scores = rng.standard_normal((8, 200))
    scores[2] = np.nan
    scores[5, 3:] = np.nan                       # 3 values left, k = 5
    out = np.empty((8, 5), dtype=np.int64)
    assert sorted(topk._cut_by_block_bound(scores, 5, out)) == [2, 5]
    keep = [0, 1, 3, 4, 6, 7]
    np.testing.assert_array_equal(
        out[keep], oracle.deterministic_topk_rows(scores[keep], 5))
    with pytest.raises(ValueError, match="row 2 has 0 comparable values"):
        deterministic_topk_rows(scores, 5)
    scores[5, :3] = np.nan
    scores[2] = 1.0
    assert_same_cut(scores, 5)


def test_few_rows_never_enter_the_batched_cut(monkeypatch):
    """Below 4 rows the batched cut's fixed cost loses to the 1-D
    function (a lone ``score_topk`` row is the common case)."""
    def refuse(*args):
        raise AssertionError("batched cut on a short call")

    monkeypatch.setattr(topk, "_cut_by_block_bound", refuse)
    rng = np.random.default_rng(2)
    for rows in (1, 2, 3):
        assert_same_cut(rng.standard_normal((rows, 1920)), 5)


def test_four_rows_take_the_batched_cut(monkeypatch):
    calls = []
    cut = topk._cut_by_block_bound
    monkeypatch.setattr(topk, "_cut_by_block_bound",
                        lambda *args: calls.append(args) or cut(*args))
    assert_same_cut(np.random.default_rng(4).standard_normal((4, 1920)), 5)
    assert len(calls) == 1


def test_rows_the_bound_does_not_narrow_fall_back():
    """In a constant row every block maximum ties with the bound, so
    every block reaches it: gathering them would copy the row, and the
    1-D function cuts it instead."""
    scores = np.zeros((6, 4000), dtype=np.float32)
    scores[3] = np.random.default_rng(5).standard_normal(4000)
    out = np.empty((6, 10), dtype=np.int64)
    assert sorted(topk._cut_by_block_bound(scores, 10, out)) == [0, 1, 2,
                                                                  4, 5]
    np.testing.assert_array_equal(
        out[3], oracle.deterministic_topk(scores[3], 10))


@pytest.mark.parametrize("limit", [1, 4, 10 ** 6])
def test_tie_heavy_rows_are_exact_either_way(monkeypatch, limit):
    """Rows rounded to integers tie their block maxima, and a constant
    row ties all of them; cut by the bound or by the 1-D function, the
    answer is the oracle's."""
    monkeypatch.setattr(topk, "_REACH_LIMIT", limit)
    rng = np.random.default_rng(limit)
    scores = np.round(rng.standard_normal((30, 250)), 0).astype(np.float32)
    scores[7] = 0.5
    for k in (1, 10, 249, 250):
        assert_same_cut(scores, k)


@pytest.fixture(scope="module")
def index_world():
    """The end-to-end benchmark's index world in shape: 40,000 unit
    vectors of dim 64 round 512 centres, 256 queries round the same."""
    rng = np.random.default_rng(37)
    centres = rng.standard_normal((512, 64))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)

    def around(count, sigma):
        points = centres[rng.integers(0, 512, size=count)] \
            + sigma * rng.standard_normal((count, 64))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        return np.ascontiguousarray(points, dtype=np.float32)

    return around(40_000, 0.08), around(256, 0.06)


def test_exhaustive_search_equals_the_oracle(index_world):
    """``nprobe = nlist`` is one GEMM and one batched cut; its ids and
    scores are the oracle's cut of the same product."""
    images, queries = index_world
    index = build_ivfpq(images, IVFPQConfig(nlist=16, pq_m=4,
                                            train_sample=2048,
                                            kmeans_iterations=3))
    result = index.search(queries, 10, nprobe=index.nlist)
    truth = queries @ images.T
    want = oracle.deterministic_topk_rows(truth, 10)
    np.testing.assert_array_equal(result.ids, want)
    np.testing.assert_array_equal(result.scores,
                                  np.take_along_axis(truth, want, axis=1))
