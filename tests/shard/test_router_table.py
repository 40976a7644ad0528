"""Hits answered by the router from its merged answer table.

At boot the router fetches every worker's answer table (the ``table``
op) and merges them into the unsharded table; a request with ``top_k <=
table_k`` is then answered by the router alone.  The claims, over real
sockets:

* a table answer is byte-equal to the scatter answer (the same fleet
  behind a router that never fetched the table) and to an unsharded
  :class:`MatchService`, for every vertex and every ``top_k`` in
  ``1..table_k``, on hard, soft, IVF-PQ-indexed and tied-duplicate
  worlds with 2 and 3 shards — and the merged table's digest is the
  unsharded table's;
* a hit stays exact while a shard is dead; past the table, the same
  fleet answers typed ``unavailable``;
* a worker that does not know the ``table`` op makes the router refuse
  to boot;
* a slot that heals at a new address is refetched, and a changed
  digest re-merges the table;
* the ``table`` op itself: a worker's payload carries the digest its
  ``info`` reports, the stdio loop answers it, and a tampered payload
  is refused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import threading
import time

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.index import IVFPQConfig
from repro.netserve import TABLE_K, NetServeConfig, NetServer
from repro.obs import registry
from repro.serve import MatchService, ServeConfig, serve_loop
from repro.serve.service import table_digest
from repro.shard import RouterBootError, RouterConfig, ShardRouter
from repro.shard.router import _Slice

from .conftest import StaticEndpoints
from .test_router import PAST_TABLE, Client, trace_ctx


class ScatterRouter(ShardRouter):
    """The router answering nothing from its table: every valid request
    fans out to the shards, as a request past the table does."""

    def _table_answer(self, request, query):
        return None


class TablelessWorker(NetServer):
    """A worker from before the ``table`` op: the op reaches the
    service as a vertex-less request (a typed ``bad_request``), and
    ``info`` carries no table fields."""

    def table(self, request_id):
        return self.service.handle({"id": request_id, "op": "table"})

    def info(self, request_id):
        response = super().info(request_id)
        response["info"].pop("table_k")
        response["info"].pop("table_sha256")
        return response


@contextlib.contextmanager
def serving(door):
    """Run a door on an ephemeral port in a thread; drain it on exit and
    insist the drain was clean."""
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


def worker(matcher, slot, count, server=NetServer):
    return server(MatchService(matcher, config=ServeConfig(
        shard_slot=slot, shard_count=count)).warmup(),
        NetServeConfig())


def router(endpoints, cls=ShardRouter):
    return cls(endpoints, RouterConfig(shard_timeout_ms=10000.0,
                                       drain_timeout_s=10.0))


def ask_all(address, requests, window=RouterConfig().conn_inflight):
    """Every request on one connection, pipelined ``window`` at a time —
    up to the router's own per-connection cap, so a scattered request is
    never shed (the workers' smaller cap is the router's to respect);
    raw lines by id."""
    client = Client(address)
    lines = []
    for start in range(0, len(requests), window):
        chunk = requests[start:start + window]
        for request in chunk:
            client.send(request)
        lines.extend(client.recv_raw() for _ in chunk)
    client.close()
    return {json.loads(line)["id"]: line for line in lines}


def canonical(raw) -> str:
    body = json.loads(raw) if isinstance(raw, (bytes, str)) else dict(raw)
    body.pop("elapsed_ms", None)
    return json.dumps(body, sort_keys=True)


def every_hit(matcher):
    """Every vertex at every ``top_k`` in ``1..table_k``, each joining a
    caller trace so ``trace_id`` is compared rather than masked."""
    return [{"id": f"{vertex}-{top_k}", "vertex": int(vertex),
             "top_k": top_k, "trace": trace_ctx(f"t-{vertex}-{top_k}")}
            for vertex in matcher.vertex_ids
            for top_k in range(1, TABLE_K + 1)]


def duplicated(images):
    """Every image twice, adjacent (so a pair straddles two shards),
    under ids shuffled independently of position."""
    ids = np.random.default_rng(5).permutation(2 * len(images))
    return [dataclasses.replace(image, image_id=int(ids[2 * p + copy]))
            for p, image in enumerate(images) for copy in range(2)]


@pytest.fixture(scope="module", params=["hard", "soft", "indexed",
                                        "duplicates"])
def world(request, tiny_bundle, tiny_dataset):
    prompt = "soft" if request.param == "soft" else "hard"
    matcher = CrossEM(tiny_bundle, CrossEMConfig(
        prompt=prompt, epochs=1 if prompt == "soft" else 0, seed=3))
    images = tiny_dataset.images
    if request.param == "duplicates":
        images = duplicated(images)
    matcher.fit(tiny_dataset.graph, images, tiny_dataset.entity_vertices)
    if request.param == "indexed":
        matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                        refine=8, seed=0))
    return matcher


@pytest.mark.parametrize("count", [2, 3])
def test_table_answer_equals_scatter_and_unsharded(world, count):
    requests = every_hit(world)
    unsharded = MatchService(world).warmup()
    with contextlib.ExitStack() as stack:
        endpoints = StaticEndpoints([
            stack.enter_context(serving(worker(world, slot, count)))
            for slot in range(count)])
        table_door = router(endpoints)
        table_answers = ask_all(stack.enter_context(serving(table_door)),
                                requests)
        scatter_answers = ask_all(stack.enter_context(serving(
            router(endpoints, ScatterRouter))), requests)
        merged = table_door.table("t")["table"]
    assert registry().counter("shard.router.table_hits_total").value \
        == len(requests), "a hit reached the fleet"
    assert merged["sha256"] == unsharded.info()["info"]["table_sha256"]
    for request in requests:
        expected = canonical(unsharded.handle(request))
        assert canonical(table_answers[request["id"]]) == expected, \
            request["id"]
        assert canonical(scatter_answers[request["id"]]) == expected, \
            request["id"]


class TestDeadShard:
    def test_hit_stays_exact_past_the_table_is_unavailable(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, single_address = shard_cluster
        _, address = run_router(endpoints, shard_timeout_ms=2000.0)
        endpoints.addresses[1] = None  # the worker "died"
        client = Client(address)
        single = Client(single_address)
        vertex = int(fitted_hard.vertex_ids[0])
        for top_k in (1, 5, TABLE_K):
            request = {"id": f"hit-{top_k}", "vertex": vertex,
                       "top_k": top_k, "trace": trace_ctx(f"d-{top_k}")}
            hit = client.ask_raw(request)
            assert json.loads(hit)["degraded"] is False
            assert canonical(hit) == canonical(single.ask_raw(request))
        past = client.ask({"id": "past", "vertex": vertex,
                           "top_k": PAST_TABLE})
        client.close()
        single.close()
        assert past["ok"] is False
        assert past["error"]["type"] == "unavailable"
        assert past["error"]["message"] == \
            "shard 1 did not answer (2 of 3 answered)"
        assert registry().counter("shard.router.table_hits_total").value \
            == 3


class TestTablelessWorker:
    def test_router_refuses_to_boot(self, fitted_hard):
        """Without every slice there is no merged table, and a router
        without one never opens: ``run`` raises before it listens."""
        with contextlib.ExitStack() as stack:
            endpoints = StaticEndpoints([
                stack.enter_context(serving(worker(fitted_hard, 0, 2))),
                stack.enter_context(serving(worker(
                    fitted_hard, 1, 2, server=TablelessWorker)))])
            door = router(endpoints)
            with pytest.raises(RouterBootError, match="answer table"):
                door.run(install_signals=False)
            assert door.bound is None
            assert door._table is None


def wait_for(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestHeal:
    def test_changed_digest_on_heal_remerges(self, fitted_hard,
                                             tiny_bundle, tiny_dataset):
        """Slot 1 comes back at a new address serving a different
        (tuned) matcher: the router refetches its slice, sees the digest
        change, re-merges, and hits answer from the new table."""
        tuned = CrossEM(tiny_bundle, CrossEMConfig(prompt="soft", epochs=1,
                                                   seed=3))
        tuned.fit(tiny_dataset.graph, tiny_dataset.images,
                  tiny_dataset.entity_vertices)
        requests = every_hit(fitted_hard)[::5]
        with contextlib.ExitStack() as stack:
            endpoints = StaticEndpoints([
                stack.enter_context(serving(worker(fitted_hard, slot, 2)))
                for slot in range(2)])
            door = router(endpoints)
            address = stack.enter_context(serving(door))
            before = door.table("t")["table"]["sha256"]
            endpoints.addresses[1] = None  # dies ...
            healed = stack.enter_context(serving(worker(tuned, 1, 2)))
            endpoints.addresses[1] = healed  # ... and comes back changed
            changed = registry().counter("shard.router.table_changed_total")
            assert wait_for(lambda: changed.value == 1), \
                "the healed slot was never refetched"
            after = door.table("t")["table"]["sha256"]
            table_answers = ask_all(address, requests)
            scatter_answers = ask_all(stack.enter_context(serving(
                router(endpoints, ScatterRouter))), requests)
        assert after != before
        assert registry().counter("shard.router.table_hits_total").value \
            == len(requests)
        for request in requests:
            assert canonical(table_answers[request["id"]]) == \
                canonical(scatter_answers[request["id"]]), request["id"]

    def test_same_digest_on_heal_keeps_the_table(self, fitted_hard):
        with contextlib.ExitStack() as stack:
            endpoints = StaticEndpoints([
                stack.enter_context(serving(worker(fitted_hard, slot, 2)))
                for slot in range(2)])
            door = router(endpoints)
            stack.enter_context(serving(door))
            table = door._table
            endpoints.addresses[1] = stack.enter_context(serving(
                worker(fitted_hard, 1, 2)))
            # the watcher noticed the new address, and its refetch (the
            # one task beside the watcher) has finished
            assert wait_for(lambda: door._sliced_from[1]
                            == endpoints.addresses[1]
                            and len(door._table_tasks) == 1)
            assert door._table is table
        assert registry().counter(
            "shard.router.table_changed_total").value == 0


class TestTableOp:
    def test_worker_table_is_its_digest(self, fitted_hard):
        service = MatchService(fitted_hard, config=ServeConfig(
            shard_slot=0, shard_count=2)).warmup()
        table = service.table("t")["table"]
        assert table["k"] == TABLE_K
        assert table["vertices"] == [int(v) for v in fitted_hard.vertex_ids]
        assert all(0 < len(ids) <= TABLE_K and len(ids) == len(scores)
                   for ids, scores in zip(table["ids"], table["scores"]))
        assert table["sha256"] == \
            service.info()["info"]["table_sha256"] == \
            table_digest(table["vertices"],
                         zip(table["ids"], table["scores"]))

    def test_stdio_answers_the_op(self, fitted_hard):
        service = MatchService(fitted_hard).warmup()
        sink = io.StringIO()
        serve_loop(service, ['{"op": "table", "id": "t"}'], sink)
        answer = json.loads(sink.getvalue())
        assert answer["id"] == "t" and answer["ok"] is True
        assert answer["table"]["sha256"] == \
            service.info()["info"]["table_sha256"]

    def test_a_tampered_slice_is_refused(self, fitted_hard):
        service = MatchService(fitted_hard).warmup()
        payload = json.loads(json.dumps(service.table("t")["table"]))
        assert _Slice.decode(payload).sha256 == payload["sha256"]
        payload["scores"][0][0] += 1e-3
        with pytest.raises(ValueError, match="digest"):
            _Slice.decode(payload)
