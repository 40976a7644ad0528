"""The serve layer over an index-backed matcher.

Contract: attaching an ANN index changes *how* the full tier computes
top-k (index shortlist instead of the brute GEMM) but not *what* a
response contains — same image ids in the same order, scores equal to
the exact inner products up to BLAS kernel rounding.  The answer
table of an indexed service is the ``table_k``-wide search, and it
keeps the stale tier honest: a request wanting more matches than a
table row holds is a miss, not a short answer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry
from repro.serve import MatchService, ServeConfig
from repro.serve.deadline import Deadline

from .test_service import SteppingClock


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
        # past the answer table, so the request searches the index
        indexed_service.handle(
            {"id": 2, "vertex": indexed_matcher.vertex_ids[1],
             "top_k": indexed_service.config.table_k + 1})
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
        """The surrogate row holds max(top_k, table_k) finite entries —
        the answer table's width, far from a full GEMM row."""
        floor = indexed_service.config.table_k
        [row] = indexed_service._score_tile(
            [indexed_matcher.vertex_ids[0]], 1, Deadline.unbounded())
        finite = int(np.isfinite(row).sum())
        assert finite == min(floor, len(indexed_matcher.images))

    def test_blown_budget_answers_within_the_table(self, indexed_matcher):
        """A blown budget is answered from the answer table up to
        ``table_k`` matches; a request wanting more than a table row
        holds is scored, so it gets its ``deadline_exceeded``, not a
        short answer."""
        service = MatchService(indexed_matcher, config=ServeConfig(table_k=2),
                               clock=SteppingClock()).warmup()
        vertex = indexed_matcher.vertex_ids[0]
        covered = service.handle({"vertex": vertex, "top_k": 2,
                                  "budget_ms": 1})
        assert covered["tier"] == "full" and len(covered["matches"]) == 2
        wider = service.handle({"vertex": vertex, "top_k": 3,
                                "budget_ms": 1})
        assert wider["ok"] is False
        assert wider["error"]["type"] == "deadline_exceeded"
