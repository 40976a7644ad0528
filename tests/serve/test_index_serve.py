"""The serve layer over an index-backed matcher.

Contract: attaching an ANN index does not change what the service
serves.  The answer table holds every vertex's whole ranking, which an
index cannot narrow, so it is cut from the brute tile kernel whether or
not an index is attached: an indexed service answers the exact bytes a
brute-force one does, at every depth, and never searches the index on
the request path."""

from __future__ import annotations

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry
from repro.serve import MatchService

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
        assert with_index["matches"] == without["matches"]

    def test_a_deep_request_never_searches_the_index(self, indexed_service,
                                                     indexed_matcher):
        before = registry().counter("index.queries").value
        response = indexed_service.handle(
            {"id": 2, "vertex": indexed_matcher.vertex_ids[1],
             "top_k": len(indexed_matcher.images)})
        assert response["ok"]
        assert len(response["matches"]) == len(indexed_matcher.images)
        assert registry().counter("index.queries").value == before

    def test_scores_descend_and_ids_are_real(self, indexed_service,
                                             indexed_matcher):
        response = indexed_service.handle(
            {"id": 3, "vertex": indexed_matcher.vertex_ids[2], "top_k": 5})
        scores = [m["score"] for m in response["matches"]]
        assert scores == sorted(scores, reverse=True)
        assert len(response["matches"]) == 5
        image_ids = {img.image_id for img in indexed_matcher.images}
        assert all(m["image"] in image_ids for m in response["matches"])


class TestBlownBudget:
    def test_blown_budget_answers_every_depth(self, indexed_matcher,
                                              indexed_service):
        """A blown budget costs nothing: every depth is a slice of the
        table, answered in full and equal to the unhurried answer."""
        service = MatchService(indexed_matcher,
                               clock=SteppingClock()).warmup()
        vertex = indexed_matcher.vertex_ids[0]
        for top_k in (2, 3, len(indexed_matcher.images)):
            hurried = service.handle({"vertex": vertex, "top_k": top_k,
                                      "budget_ms": 1})
            assert hurried["tier"] == "full"
            assert hurried["matches"] == indexed_service.handle(
                {"vertex": vertex, "top_k": top_k})["matches"]
