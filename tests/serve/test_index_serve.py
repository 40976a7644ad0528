"""The serve layer over an index-backed matcher.

Contract: attaching an ANN index changes *how* the full tier computes
top-k (index shortlist instead of the brute GEMM) but not *what* a
response contains — same image ids in the same order, scores equal to
the exact inner products up to BLAS kernel rounding.  The dense-row
surrogate also has to keep the stale-cache fallback honest: a cached
index row only answers a later request if it actually holds enough
finite entries for that request's ``top_k``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry
from repro.serve import MatchService, ServeConfig
from repro.serve.deadline import Deadline


@pytest.fixture(scope="module")
def indexed_matcher(tiny_bundle, tiny_dataset):
    """A fitted matcher with an exhaustive-by-default tiny index: with
    nprobe >= nlist every search is bit-identical to brute force, so
    response equality checks are exact."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                 seed=3))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    from repro.index import IVFPQConfig

    matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4, refine=8,
                                    seed=0))
    return matcher


@pytest.fixture()
def indexed_service(indexed_matcher):
    return MatchService(indexed_matcher).warmup()


class TestIndexBackedResponses:
    def test_matches_identical_to_brute_service(self, indexed_matcher,
                                                indexed_service):
        vertex = indexed_matcher.vertex_ids[0]
        with_index = indexed_service.handle(
            {"id": 1, "vertex": vertex, "top_k": 3})
        assert with_index["ok"] and with_index["tier"] == "full"
        index = indexed_matcher.search_index
        indexed_matcher.detach_index()
        try:
            without = MatchService(indexed_matcher).warmup().handle(
                {"id": 1, "vertex": vertex, "top_k": 3})
        finally:
            indexed_matcher.attach_index(index)
        assert [m["image"] for m in with_index["matches"]] \
            == [m["image"] for m in without["matches"]]
        got = [m["score"] for m in with_index["matches"]]
        want = [m["score"] for m in without["matches"]]
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_index_telemetry_lands_in_registry(self, indexed_service,
                                               indexed_matcher):
        before = registry().counter("index.queries").value
        indexed_service.handle(
            {"id": 2, "vertex": indexed_matcher.vertex_ids[1], "top_k": 2})
        assert registry().counter("index.queries").value > before

    def test_scores_descend_and_ids_are_real(self, indexed_service,
                                             indexed_matcher):
        response = indexed_service.handle(
            {"id": 3, "vertex": indexed_matcher.vertex_ids[2], "top_k": 5})
        scores = [m["score"] for m in response["matches"]]
        assert scores == sorted(scores, reverse=True)
        assert len(response["matches"]) == 5
        image_ids = {img.image_id for img in indexed_matcher.images}
        assert all(m["image"] in image_ids for m in response["matches"])


class TestDenseRowSurrogate:
    def test_index_row_covers_k_floor_not_whole_repo(self, indexed_matcher,
                                                     indexed_service):
        """The surrogate row holds max(top_k, index_k_floor) finite
        entries — enough for cache reuse, far from a full GEMM row."""
        floor = indexed_service.config.index_k_floor
        [row] = indexed_service._score_tile(
            [indexed_matcher.vertex_ids[0]], 1, Deadline.unbounded())
        finite = int(np.isfinite(row).sum())
        assert finite == min(floor, len(indexed_matcher.images))

    def test_stale_covers_counts_finite_entries(self):
        row = np.full(10, -np.inf, dtype=np.float32)
        row[[1, 4, 6]] = 1.0
        assert MatchService._stale_covers(row, 3)
        assert not MatchService._stale_covers(row, 4)

    def test_stale_covers_clamps_to_row_width(self):
        row = np.ones(4, dtype=np.float32)
        assert MatchService._stale_covers(row, 100)

    def test_insufficient_stale_row_is_not_served(self, indexed_matcher):
        """A stale index row cached at small k must not answer a later
        degraded request wanting more matches than it holds."""
        config = ServeConfig(index_k_floor=2)
        service = MatchService(indexed_matcher, config=config).warmup()
        vertex = indexed_matcher.vertex_ids[0]
        service.handle({"id": 1, "vertex": vertex, "top_k": 1})
        big = max(4, config.index_k_floor + 1)
        entry = service._stale_get(vertex)
        assert entry is not None
        assert not service._stale_covers(entry[0], big)
