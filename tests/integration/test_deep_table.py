"""Every request is a slice, on every door.

A request deeper than the 16 entries the ``table`` op ships — 17, a
shard worker's whole owned share, the whole repository, and past it —
goes through every way a query can reach :class:`MatchService`:
``handle``, the stdio ``serve_loop``, a live ``NetServer`` and a
2-shard ``ShardRouter``.  Every answer, once ``elapsed_ms`` and
``trace_id`` are masked, must be what the matcher itself computes: the
vertex's row of a ``BATCH_TILE``-row ``CrossEM.score`` operand, cut by
``deterministic_topk`` with the image ids as tie-break.  A blown budget
changes nothing any door answers: the router bounds its wait for the
shards by ``shard_timeout_ms`` alone.  And once the services are warm,
no door scores anything: every answer comes out of a table ``warmup()``
built.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.index import IVFPQConfig, deterministic_topk
from repro.netserve import NetServeConfig, NetServer
from repro.obs import registry, reset_spans, trace_recorder
from repro.serve import BATCH_TILE, MatchService, ServeConfig, serve_loop
from repro.shard import RouterConfig, ShardRouter
from tests.integration.test_cross_door_oracle import (StaticEndpoints,
                                                      ask_over_socket,
                                                      canonical, duplicated,
                                                      running)

SHARDS = 2


@pytest.fixture(autouse=True)
def clean_metrics():
    registry().reset()
    reset_spans()
    trace_recorder().reset()
    yield
    registry().reset()
    reset_spans()
    trace_recorder().reset()


@pytest.fixture(scope="module", params=["hard-duplicates", "hard-indexed"])
def world(request, tiny_bundle, tiny_dataset):
    """Hard prompts over a repository of duplicate images (exact ties),
    or behind a probed IVF-PQ index that the table build ignores."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                 seed=3))
    images = tiny_dataset.images
    if request.param == "hard-duplicates":
        images = duplicated(images)
    matcher.fit(tiny_dataset.graph, images, tiny_dataset.entity_vertices)
    if request.param == "hard-indexed":
        matcher.build_index(IVFPQConfig(nlist=4, nprobe=1, pq_m=4,
                                        refine=2, seed=0))
    return matcher


def request_list(matcher):
    images = len(matcher.images)
    owned = len(range(0, images, SHARDS))
    depths = (17, owned, images, images + 5)
    vertices = [int(v) for v in matcher.vertex_ids]
    requests = [{"id": f"q{i}", "vertex": vertices[i % len(vertices)],
                 "top_k": depths[i % len(depths)]}
                for i in range(2 * len(vertices))]
    requests[1]["budget_ms"] = 0.001
    return requests


def oracle(matcher, request: dict) -> str:
    row = matcher.score([request["vertex"]] * BATCH_TILE)[0]
    ids = np.array([image.image_id for image in matcher.images])
    top_k = min(request["top_k"], len(ids))
    matches = [{"image": int(ids[i]), "score": float(row[i])}
               for i in deterministic_topk(row, top_k, tie_break=ids)]
    return json.dumps({"id": request["id"], "ok": True,
                       "vertex": request["vertex"], "tier": "full",
                       "degraded": False, "matches": matches},
                      sort_keys=True)


def through_handle(services, requests):
    return [services["whole"].handle(request) for request in requests]


def through_stdio(services, requests):
    sink = io.StringIO()
    assert serve_loop(services["whole"], [json.dumps(r) for r in requests],
                      sink) == len(requests)
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def through_tcp(services, requests):
    with running(NetServer(services["whole"], NetServeConfig())) as address:
        answers = ask_over_socket(address, requests)
    return [answers[request["id"]] for request in requests]


def through_router(services, requests):
    with contextlib.ExitStack() as stack:
        addresses = [stack.enter_context(running(NetServer(
            services[slot], NetServeConfig()))) for slot in range(SHARDS)]
        router = ShardRouter(StaticEndpoints(addresses),
                             RouterConfig(shard_timeout_ms=10000.0))
        # entered last, so the router drains before its workers do
        address = stack.enter_context(running(router))
        answers = ask_over_socket(address, requests)
    return [answers[request["id"]] for request in requests]


DOORS = {"handle": through_handle, "stdio": through_stdio,
         "tcp": through_tcp, "router": through_router}


@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_deep_request_is_the_oracle_and_scores_nothing(
        world, door, monkeypatch):
    services = {"whole": MatchService(world).warmup()}
    for slot in range(SHARDS):
        services[slot] = MatchService(world, config=ServeConfig(
            shard_slot=slot, shard_count=SHARDS)).warmup()
    requests = request_list(world)
    expected = [oracle(world, request) for request in requests]
    calls = []
    for name in ("score", "score_topk"):
        real = getattr(CrossEM, name)

        def spy(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(CrossEM, name, spy)
    responses = DOORS[door](services, requests)
    assert calls == []
    for request, response, want in zip(requests, responses, expected):
        assert canonical(response) == want
        assert len(response["matches"]) == \
            min(request["top_k"], len(world.images))
