"""One oracle for every front door.

The same request list — mixed ``top_k``, the service default, one
malformed request, one unknown vertex — goes through every way a query
can reach :class:`MatchService`: ``handle``, ``handle_batch``, the stdio
``serve_loop``, a live ``NetServer`` and a 2-shard ``ShardRouter``.
Every door must return the same canonical bytes (everything but
``elapsed_ms`` / ``trace_id``), and those bytes must be what the
matcher itself computes: the vertex's row of a ``batch_tile``-row
``CrossEM.score`` operand, cut by ``deterministic_topk`` in the served
total order ``(-score, image id)``.  One world holds every image twice
under shuffled ids, so every row has exact score ties whose position
order and id order disagree — and the pair always straddles the two
shards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.index import IVFPQConfig, deterministic_topk
from repro.netserve import NetServeConfig, NetServer
from repro.obs import (registry, reset_spans, set_tracing_enabled,
                       trace_recorder)
from repro.serve import MatchService, ServeConfig, serve_loop
from repro.shard import RouterConfig, ShardRouter

TOP_K_DEFAULT = 2


@pytest.fixture(autouse=True)
def clean_metrics():
    registry().reset()
    reset_spans()
    trace_recorder().reset()
    set_tracing_enabled(True)
    yield
    registry().reset()
    reset_spans()
    trace_recorder().reset()


def duplicated(images):
    """Every image twice, adjacent (so a pair straddles two shards),
    under ids shuffled independently of position."""
    ids = np.random.default_rng(5).permutation(2 * len(images))
    return [dataclasses.replace(image, image_id=int(ids[2 * p + copy]))
            for p, image in enumerate(images) for copy in range(2)]


@pytest.fixture(scope="module", params=["soft-brute", "hard-indexed",
                                        "hard-duplicates"])
def world(request, tiny_bundle, tiny_dataset):
    """A fitted matcher: tuned soft prompts scored by brute GEMM, hard
    prompts behind an exhaustive (nprobe == nlist) IVF-PQ index, or
    hard prompts over a repository of duplicate images (exact ties)."""
    prompt = "soft" if request.param == "soft-brute" else "hard"
    matcher = CrossEM(tiny_bundle, CrossEMConfig(
        prompt=prompt, epochs=1 if prompt == "soft" else 0, seed=3))
    images = tiny_dataset.images
    if request.param == "hard-duplicates":
        images = duplicated(images)
    matcher.fit(tiny_dataset.graph, images, tiny_dataset.entity_vertices)
    if request.param == "hard-indexed":
        matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                        refine=8, seed=0))
    return matcher


def make_service(matcher, **overrides) -> MatchService:
    settings = dict(top_k_default=TOP_K_DEFAULT)
    settings.update(overrides)
    return MatchService(matcher, config=ServeConfig(**settings)).warmup()


def request_list(matcher):
    vertices = [int(v) for v in matcher.vertex_ids]
    requests = [{"id": f"q{i}", "vertex": v, "top_k": (i % 5) + 1}
                for i, v in enumerate(vertices)]
    requests[1].pop("top_k")  # the service default
    requests.insert(3, {"id": "malformed", "vertex": "seven", "top_k": 2})
    requests.insert(6, {"id": "unknown", "vertex": 10 ** 9})
    return requests


def canonical(response: dict) -> str:
    body = {key: value for key, value in response.items()
            if key not in ("elapsed_ms", "trace_id")}
    return json.dumps(body, sort_keys=True)


def oracle(matcher, request: dict) -> str:
    """What ``CrossEM.score`` + ``deterministic_topk`` say the answer
    is (valid requests only)."""
    tile = ServeConfig().batch_tile
    row = matcher.score([request["vertex"]] * tile)[0]
    top_k = request.get("top_k", TOP_K_DEFAULT)
    ids = np.array([image.image_id for image in matcher.images])
    matches = [{"image": int(ids[i]), "score": float(row[i])}
               for i in deterministic_topk(row, top_k, tie_break=ids)]
    return json.dumps({"id": request["id"], "ok": True,
                       "vertex": request["vertex"], "tier": "full",
                       "degraded": False, "matches": matches},
                      sort_keys=True)


@contextlib.contextmanager
def running(door):
    """Run a ``NetServer`` / ``ShardRouter`` on an ephemeral port in a
    thread; drains it on exit and insists the drain was clean."""
    ready = threading.Event()
    outcome = {}

    def main():
        outcome["exit"] = door.run(
            install_signals=False,
            ready=lambda bound: (outcome.setdefault("bound", bound),
                                 ready.set()))
        ready.set()

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    assert ready.wait(timeout=60) and "bound" in outcome
    try:
        yield outcome["bound"]
    finally:
        door.trigger_drain()
        thread.join(timeout=30)
        assert not thread.is_alive() and outcome.get("exit") == 0


def ask_over_socket(address, requests):
    """Pipeline every request on one connection; responses by id."""
    with socket.create_connection(address, timeout=30.0) as sock:
        stream = sock.makefile("rwb")
        for request in requests:
            stream.write(json.dumps(request).encode("utf-8") + b"\n")
        stream.flush()
        answers = [json.loads(stream.readline()) for _ in requests]
    return {answer["id"]: answer for answer in answers}


class StaticEndpoints:
    def __init__(self, addresses) -> None:
        self.addresses = list(addresses)
        self.count = len(self.addresses)

    def address_of(self, slot):
        return self.addresses[slot]


def through_handle(matcher, requests):
    service = make_service(matcher)
    return [service.handle(request) for request in requests]


def through_handle_batch(matcher, requests):
    return make_service(matcher).handle_batch(requests)


def through_stdio(matcher, requests):
    service = make_service(matcher)
    sink = io.StringIO()
    assert serve_loop(service, [json.dumps(r) for r in requests],
                      sink) == len(requests)
    answers = {a["id"]: a for a in map(json.loads,
                                       sink.getvalue().splitlines())}
    return [answers[request["id"]] for request in requests]


def through_tcp(matcher, requests):
    server = NetServer(make_service(matcher),
                       NetServeConfig())
    with running(server) as address:
        answers = ask_over_socket(address, requests)
    return [answers[request["id"]] for request in requests]


def through_router(matcher, requests):
    with contextlib.ExitStack() as stack:
        addresses = [stack.enter_context(running(NetServer(
            make_service(matcher, shard_slot=slot, shard_count=2),
            NetServeConfig())))
            for slot in range(2)]
        router = ShardRouter(StaticEndpoints(addresses),
                             RouterConfig(shard_timeout_ms=10000.0))
        # entered last, so the router drains before its workers do
        address = stack.enter_context(running(router))
        answers = ask_over_socket(address, requests)
    return [answers[request["id"]] for request in requests]


DOORS = {"handle": through_handle, "handle_batch": through_handle_batch,
         "stdio": through_stdio, "tcp": through_tcp,
         "router": through_router}


@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_door_answers_the_oracle(world, door):
    requests = request_list(world)
    responses = DOORS[door](world, requests)
    reference = through_handle(world, requests)
    assert [canonical(r) for r in responses] == \
        [canonical(r) for r in reference]
    for request, response in zip(requests, responses):
        if request["id"] in ("malformed", "unknown"):
            assert response["ok"] is False
            assert response["error"]["type"] == "bad_request"
        else:
            assert canonical(response) == oracle(world, request)


def test_the_duplicates_world_has_ties_position_order_gets_wrong(
        tiny_bundle, tiny_dataset):
    """The F4 world keeps its teeth: every row ties each image with its
    copy exactly, and for some pairs the lower id sits at the higher
    position — where ``(-score, position)`` and the served
    ``(-score, image id)`` part ways."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                 seed=3))
    images = duplicated(tiny_dataset.images)
    matcher.fit(tiny_dataset.graph, images, tiny_dataset.entity_vertices)
    rows = matcher.score(list(matcher.vertex_ids))
    assert np.array_equal(rows[:, 0::2], rows[:, 1::2])
    ids = np.array([image.image_id for image in images])
    assert (ids[0::2] > ids[1::2]).any() and (ids[0::2] < ids[1::2]).any()
    best = rows.argmax(axis=1) // 2  # each vertex's top pair
    assert (ids[2 * best] > ids[2 * best + 1]).any()
