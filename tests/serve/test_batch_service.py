"""The fused batch path: N answers, zero changed bits.

The acceptance bar of the micro-batching work: a response produced
inside a fused batch is byte-for-byte the response the same request
gets served alone.  ``handle_batch`` earns this by construction —
every fused request is scored through a fixed ``batch_tile``-row
operand (padded with duplicate rows), so the BLAS kernel never depends
on batch composition (DESIGN.md §13) — and these tests hold it to
that, brute-force and index-backed, plus the isolation properties: a
malformed request in a batch hurts nobody, and a fused-call failure
falls back to per-request calls rather than failing N requests.

Only a request past the answer table is scored, so the fusion tests
ask for ``PAST_TABLE`` or more matches; a request the table covers is
a slice and never joins a fused group.
"""

from __future__ import annotations

import json

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry
from repro.serve import MatchService, MicroBatcher, ServeConfig

from .test_service import PAST_TABLE


def canonical(response: dict) -> str:
    """A response minus its timing/trace fields, serialised — the
    'same answer' relation used throughout: every semantic field, none
    of the wall-clock ones."""
    body = {key: value for key, value in response.items()
            if key not in ("elapsed_ms", "trace_id")}
    return json.dumps(body, sort_keys=True)


class TestBatchedBitIdentity:
    def test_batched_equals_one_at_a_time(self, make_service, fitted_soft):
        service = make_service()
        vertices = list(fitted_soft.vertex_ids)
        # table hits and fused members side by side in one batch
        requests = [{"id": f"b{i}", "vertex": v,
                     "top_k": (i % 3) + (PAST_TABLE if i % 2 else 1)}
                    for i, v in enumerate(vertices)]
        batched = service.handle_batch(requests)
        assert registry().counter("serve.batch.fused_total").value \
            == len(vertices) // 2
        singles = [service.handle_batch([request])[0]
                   for request in requests]
        assert [canonical(r) for r in batched] == \
            [canonical(r) for r in singles]
        assert all(r["ok"] and r["tier"] == "full" for r in batched)

    def test_composition_does_not_change_answers(self, make_service,
                                                 fitted_soft):
        """The same request fused with *different* companions gets the
        same bits — the batch is invisible to each member."""
        service = make_service()
        vertices = list(fitted_soft.vertex_ids)
        probe = {"id": "probe", "vertex": vertices[0], "top_k": PAST_TABLE}
        alone = service.handle_batch([probe])[0]
        for companions in (vertices[1:3], vertices[3:9], vertices[1:]):
            batch = [probe] + [{"id": f"c{i}", "vertex": v,
                                "top_k": PAST_TABLE}
                               for i, v in enumerate(companions)]
            fused = service.handle_batch(batch)[0]
            assert canonical(fused) == canonical(alone)

    def test_bad_requests_isolated_inside_batch(self, make_service,
                                                fitted_soft):
        service = make_service()
        vertex = fitted_soft.vertex_ids[0]
        responses = service.handle_batch([
            {"id": "ok1", "vertex": vertex, "top_k": 2},
            {"id": "bad1", "vertex": "not-a-vertex"},
            {"id": "bad2", "vertex": 10 ** 9},
            {"id": "ok2", "vertex": fitted_soft.vertex_ids[1]},
        ])
        assert [r["id"] for r in responses] == ["ok1", "bad1", "bad2", "ok2"]
        assert responses[0]["ok"] and responses[3]["ok"]
        assert responses[1]["error"]["type"] == "bad_request"
        assert responses[2]["error"]["type"] == "bad_request"

    def test_empty_batch(self, make_service):
        assert make_service().handle_batch([]) == []

    def test_fused_failure_falls_back_per_request(self, make_service,
                                                  fitted_soft,
                                                  monkeypatch):
        """If the fused scoring call blows up, every member still gets
        answered through its own ladder — never N errors for one bug."""
        service = make_service(breaker_min_calls=100)
        real_score = type(service.matcher).score
        calls = []

        def fussy_score(self, vertices, **kwargs):
            # every served score is a full tile now, so "the fused
            # call" is simply the first one: the group's pre-fetch
            calls.append(list(vertices))
            if len(calls) == 1:
                raise RuntimeError("injected fused-path failure")
            return real_score(self, vertices, **kwargs)

        monkeypatch.setattr(type(service.matcher), "score", fussy_score)
        requests = [{"id": i, "vertex": v, "top_k": PAST_TABLE}
                    for i, v in enumerate(fitted_soft.vertex_ids[:4])]
        responses = service.handle_batch(requests)
        assert all(r["ok"] and r["tier"] == "full" for r in responses)
        # nothing was served off the fused path: the failed group call,
        # then one tile per member from its own ladder
        assert registry().counter("serve.batch.fused_total").value == 0
        assert len(calls) == 1 + len(requests)


class TestOnePipeline:
    """``handle`` is ``handle_batch`` of one: same kernel, and every
    request parsed exactly once whichever way it came in."""

    def test_handle_is_a_batch_of_one(self, make_service, fitted_soft):
        service = make_service()
        for i, vertex in enumerate(fitted_soft.vertex_ids):
            request = {"id": i, "vertex": vertex, "top_k": (i % 4) + 1}
            assert canonical(service.handle(request)) == \
                canonical(service.handle_batch([request])[0])

    @pytest.fixture()
    def counting_service(self, make_service, monkeypatch):
        service = make_service(breaker_min_calls=100)
        parsed = []
        real_parse = service._parse

        def counting_parse(request):
            parsed.append(request.get("id")
                          if isinstance(request, dict) else None)
            return real_parse(request)

        monkeypatch.setattr(service, "_parse", counting_parse)
        return service, parsed

    def test_each_request_is_parsed_once(self, counting_service,
                                         fitted_soft):
        service, parsed = counting_service
        v = fitted_soft.vertex_ids
        service.handle({"id": "lone", "vertex": v[0]})
        service.handle({"id": "lone-bad", "vertex": "x"})
        service.handle_batch([{"id": "b0", "vertex": v[0]},
                              {"id": "b-bad", "vertex": 10 ** 9},
                              {"id": "b1", "vertex": v[1], "top_k": 3},
                              "not even an object"])
        emitted = []
        batcher = MicroBatcher(service)
        batcher.submit({"id": "queued", "vertex": v[2]}, emitted.append)
        assert batcher.drain(timeout=10.0)
        assert [r["id"] for r in emitted] == ["queued"]
        assert parsed == ["lone", "lone-bad", "b0", "b-bad", "b1", None,
                          "queued"]

    def test_parsed_once_even_when_the_fused_call_fails(
            self, counting_service, fitted_soft, monkeypatch):
        service, parsed = counting_service
        real_tile = service._score_tile
        calls = []

        def first_call_fails(vertices, top_k, deadline):
            calls.append(len(vertices))
            if len(calls) == 1:
                raise RuntimeError("injected fused-path failure")
            return real_tile(vertices, top_k, deadline)

        monkeypatch.setattr(service, "_score_tile", first_call_fails)
        responses = service.handle_batch(
            [{"id": i, "vertex": v, "top_k": PAST_TABLE}
             for i, v in enumerate(fitted_soft.vertex_ids[:3])])
        assert all(r["ok"] and r["tier"] == "full" for r in responses)
        assert calls == [3, 1, 1, 1]
        assert parsed == [0, 1, 2]

    def test_lone_request_is_not_prefetched(self, make_service,
                                            fitted_soft, monkeypatch):
        """A group of one is scored by its own request — one breaker
        failure for one failed call, not two."""
        service = make_service(breaker_min_calls=100)
        monkeypatch.setattr(
            service.matcher, "score",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("down")))
        response = service.handle_batch(
            [{"id": 1, "vertex": fitted_soft.vertex_ids[0],
              "top_k": PAST_TABLE}])[0]
        assert response["error"]["type"] == "internal"
        failures = registry().counter("serve.breaker.text.failures_total").value
        assert failures == 1


class TestIndexedBatchedBitIdentity:
    @pytest.fixture()
    def indexed_service(self, tiny_bundle, tiny_dataset):
        matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard",
                                                     epochs=0, seed=3))
        matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices)
        from repro.index import IVFPQConfig

        # nprobe == nlist: exhaustive search, no escalation path, so
        # index answers are deterministic across batch compositions
        matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                        refine=8, seed=0))
        return MatchService(matcher).warmup()

    def test_batched_equals_one_at_a_time_with_index(self,
                                                     indexed_service):
        vertices = list(indexed_service.matcher.vertex_ids)
        requests = [{"id": i, "vertex": v, "top_k": PAST_TABLE + (i % 2)}
                    for i, v in enumerate(vertices)]
        batched = indexed_service.handle_batch(requests)
        singles = [indexed_service.handle_batch([request])[0]
                   for request in requests]
        assert [canonical(r) for r in batched] == \
            [canonical(r) for r in singles]
        assert all(r["ok"] and r["tier"] == "full" for r in batched)
        assert [canonical(indexed_service.handle(r)) for r in requests] \
            == [canonical(r) for r in singles]


class TestBatchTileConfig:
    def test_tile_must_be_positive(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_tile=0)

    def test_tile_width_does_not_change_answers(self, fitted_soft):
        """Different tile widths pick different (fixed) kernels; each
        is internally consistent, and each matches its own singleton
        path — the invariant is *within* a config, per DESIGN.md §13."""
        for tile in (2, 8):
            service = MatchService(
                fitted_soft, config=ServeConfig(batch_tile=tile)).warmup()
            requests = [{"id": i, "vertex": v, "top_k": PAST_TABLE}
                        for i, v in enumerate(fitted_soft.vertex_ids[:5])]
            batched = service.handle_batch(requests)
            singles = [service.handle_batch([request])[0]
                       for request in requests]
            assert [canonical(r) for r in batched] == \
                [canonical(r) for r in singles]
