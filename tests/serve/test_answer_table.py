"""The answer table: every served byte is still the tile kernel's.

``warmup()`` cuts each vertex's whole owned ranking from its row of a
``BATCH_TILE``-row ``CrossEM.score`` operand, and every request is a
prefix slice of that entry.  The oracle here is independent of the
service: that row, cut by ``deterministic_topk`` over the positions the
worker owns with the image ids as tie-break — for every vertex, every
``top_k`` up to one past the ``table`` op's head and a clamped huge
one, unsharded and as every slot of 2 and 3 shards, with or without an
ANN index attached.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.index import IVFPQConfig, deterministic_topk
from repro.netserve import TABLE_K
from repro.serve import BATCH_TILE as TILE
from repro.serve import MatchService, ServeConfig
from repro.shard import owned_positions

#: unsharded, then every slot of a 2- and a 3-shard fleet
LAYOUTS = [(None, None)] + [(slot, count) for count in (2, 3)
                            for slot in range(count)]


def duplicated(images):
    """Every image twice, adjacent, under ids shuffled independently of
    position — the cross-door oracle's tie world."""
    ids = np.random.default_rng(5).permutation(2 * len(images))
    return [dataclasses.replace(image, image_id=int(ids[2 * p + copy]))
            for p, image in enumerate(images) for copy in range(2)]


def fitted_hard(bundle, dataset, images=None) -> CrossEM:
    matcher = CrossEM(bundle, CrossEMConfig(prompt="hard", epochs=0,
                                            seed=3))
    matcher.fit(dataset.graph, images if images is not None
                else dataset.images, dataset.entity_vertices)
    return matcher


def cut(matcher, row, top_k, slot=None, count=None):
    """``row`` cut to the served answer of the worker owning ``slot``."""
    ids = np.array([image.image_id for image in matcher.images])
    positions = np.arange(len(ids)) if count is None \
        else owned_positions(len(ids), count, slot)
    scores, owned_ids = row[positions], ids[positions]
    finite = np.isfinite(scores)
    order = deterministic_topk(np.where(finite, scores, -np.inf),
                               min(top_k, int(finite.sum())),
                               tie_break=owned_ids)
    return [{"image": int(owned_ids[i]), "score": float(scores[i])}
            for i in order]


def brute_row(matcher, vertex):
    return matcher.score([vertex] * TILE)[0]


def top_ks(matcher, table_k=TABLE_K):
    """1..table_k + 1, then a huge one the service clamps."""
    return list(range(1, table_k + 2)) + [10 ** 9]


def served(service, vertex, top_k):
    response = service.handle({"vertex": vertex, "top_k": top_k})
    assert response["ok"] and response["tier"] == "full", response
    return response["matches"]


def service_for(matcher, slot=None, count=None, **config):
    return MatchService(matcher, config=ServeConfig(
        shard_slot=slot, shard_count=count, **config)).warmup()


@pytest.fixture(scope="module")
def hard_matcher(tiny_bundle, tiny_dataset):
    return fitted_hard(tiny_bundle, tiny_dataset)


@pytest.fixture(scope="module", params=["soft", "hard"])
def world(request, fitted_soft, hard_matcher):
    """The suite's tuned soft world or the hard world."""
    if request.param == "soft":
        return fitted_soft
    return hard_matcher


class TestExactness:
    @pytest.mark.parametrize("slot,count", LAYOUTS)
    def test_every_answer_is_the_tile_kernel(self, world, slot, count):
        matcher = world
        service = service_for(matcher, slot, count)
        for vertex in matcher.vertex_ids:
            row = brute_row(matcher, vertex)
            for top_k in top_ks(matcher):
                assert served(service, vertex, top_k) == \
                    cut(matcher, row, min(top_k, len(matcher.images)),
                        slot, count), (vertex, top_k)

    @pytest.mark.parametrize("slot,count", LAYOUTS)
    def test_ties_straddling_the_table_edge(self, tiny_bundle, tiny_dataset,
                                            slot, count):
        """Every image twice under shuffled ids: each score is an exact
        tie.  An odd ``top_k`` cuts a tie class in two, and the prefix
        must still be the id-ordered answer."""
        matcher = fitted_hard(tiny_bundle, tiny_dataset,
                              duplicated(tiny_dataset.images))
        table_k = TABLE_K - 1
        service = service_for(matcher, slot, count)
        for vertex in matcher.vertex_ids:
            row = brute_row(matcher, vertex)
            if count is None:
                whole = cut(matcher, row, table_k + 1)
                assert whole[table_k - 1]["score"] == whole[table_k]["score"]
            for top_k in top_ks(matcher, table_k):
                assert served(service, vertex, top_k) == \
                    cut(matcher, row, min(top_k, len(matcher.images)),
                        slot, count), (vertex, top_k)

    @pytest.mark.parametrize("nprobe", [1, 4], ids=["probed", "exhaustive"])
    @pytest.mark.parametrize("slot,count", [(None, None), (0, 2), (1, 2)])
    def test_indexed_answers_are_the_tile_kernel(
            self, tiny_bundle, tiny_dataset, nprobe, slot, count):
        """An attached index, probed or not, does not cut the table: an
        indexed service serves the brute bytes."""
        matcher = fitted_hard(tiny_bundle, tiny_dataset)
        matcher.build_index(IVFPQConfig(nlist=4, nprobe=nprobe, pq_m=4,
                                        refine=2, seed=0))
        service = service_for(matcher, slot, count)
        for vertex in matcher.vertex_ids:
            row = brute_row(matcher, vertex)
            for top_k in top_ks(matcher):
                k = min(top_k, len(matcher.images))
                assert served(service, vertex, top_k) == \
                    cut(matcher, row, k, slot, count), (vertex, top_k)


class TestSlice:
    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["brute", "indexed"])
    def test_a_table_hit_scores_nothing(self, tiny_bundle, tiny_dataset,
                                        monkeypatch, indexed):
        matcher = fitted_hard(tiny_bundle, tiny_dataset)
        if indexed:
            matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                            refine=8, seed=0))
        service = service_for(matcher)
        calls = []
        for name in ("score", "score_topk"):
            real = getattr(CrossEM, name)

            def spy(self, *args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(CrossEM, name, spy)
        images = len(matcher.images)
        requests = [{"id": i, "vertex": v, "top_k": (i % (images + 5)) + 1}
                    for i, v in enumerate(matcher.vertex_ids)]
        responses = service.handle_batch(requests) \
            + [service.handle(request) for request in requests]
        assert all(r["ok"] and r["tier"] == "full" for r in responses)
        assert {len(r["matches"]) for r in responses} == \
            {min(r["top_k"], images) for r in requests}
        assert calls == []

    def test_mutating_a_response_cannot_reach_the_table(self, hard_matcher):
        service = service_for(hard_matcher)
        request = {"vertex": hard_matcher.vertex_ids[0], "top_k": 3}
        first = service.handle(request)
        before = json.dumps(first["matches"])
        first["matches"][0]["score"] = 99.0
        first["matches"][0]["image"] = -1
        first["matches"].append({"image": -2, "score": 100.0})
        assert json.dumps(service.handle(request)["matches"]) == before
        ids, scores = service._table[hard_matcher.vertex_ids[0]]
        with pytest.raises(ValueError):
            scores[0] = 99.0
        with pytest.raises(ValueError):
            ids[0] = -1


class TestWarmup:
    def test_a_text_backend_raising_in_warmup_fails_boot(self, tiny_bundle,
                                                         tiny_dataset):
        matcher = fitted_hard(tiny_bundle, tiny_dataset)

        def broken(vertex_ids):
            raise RuntimeError("text backend down")

        matcher._text_queries = broken
        service = MatchService(matcher)
        with pytest.raises(RuntimeError, match="text backend down"):
            service.warmup()
        # nothing was published: a request still reports the sick boot
        response = service.handle({"vertex": matcher.vertex_ids[0]})
        assert response["ok"] is False
        assert response["error"]["type"] == "internal"
        assert "warmup failed" in response["error"]["message"]

    def test_racing_first_requests_build_the_table_once(self, hard_matcher,
                                                        monkeypatch):
        service = MatchService(hard_matcher)
        builds = []
        real_build = service._build_table

        def slow_build():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # every racer arrives while this one builds
            return real_build()

        monkeypatch.setattr(service, "_build_table", slow_build)
        threads = 6
        start = threading.Barrier(threads)
        answers = [None] * threads
        request = {"vertex": hard_matcher.vertex_ids[1], "top_k": 4}

        def first_request(i):
            start.wait()
            response = service.handle_batch([dict(request)])[0]
            answers[i] = json.dumps({k: v for k, v in response.items()
                                     if k not in ("elapsed_ms",
                                                  "trace_id")})

        workers = [threading.Thread(target=first_request, args=(i,))
                   for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert len(builds) == 1
        assert len(set(answers)) == 1 and answers[0] is not None
        assert json.loads(answers[0])["tier"] == "full"


def test_table_entries_own_their_memory(hard_matcher):
    """Entries are cut out of their tile, each the whole owned ranking:
    no entry keeps a ``BATCH_TILE`` x |I| score block alive."""
    for slot, count in LAYOUTS:
        service = service_for(hard_matcher, slot, count)
        for ids, scores in service._table.values():
            assert ids.base is None and scores.base is None
            assert len(ids) == len(scores) == service.owned_images
            assert ids.dtype == np.int64 and scores.dtype == np.float32

