"""``handle_batch``: N answers, zero changed bits.

Every request is a slice of the answer table, so a response inside a
batch is byte-for-byte the response the same request gets served
alone, whatever its companions — brute-force and index-backed — and a
malformed request in a batch hurts nobody.  The table itself is scored
through fixed ``BATCH_TILE``-row operands (DESIGN.md §13), a constant,
not a knob.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.serve import BATCH_TILE, MatchService, ServeConfig, serve_loop

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
        # short and deep requests side by side in one batch
        requests = [{"id": f"b{i}", "vertex": v,
                     "top_k": (i % 3) + (PAST_TABLE if i % 2 else 1)}
                    for i, v in enumerate(vertices)]
        batched = service.handle_batch(requests)
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
        service = make_service()
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
        sink = io.StringIO()
        assert serve_loop(service, [json.dumps({"id": "piped",
                                                "vertex": v[2]})], sink) == 1
        assert json.loads(sink.getvalue())["id"] == "piped"
        assert parsed == ["lone", "lone-bad", "b0", "b-bad", "b1", None,
                          "piped"]


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
    def test_tile_is_not_a_knob(self):
        assert ServeConfig.batch_tile == ServeConfig().batch_tile \
            == BATCH_TILE == 8
        with pytest.raises(TypeError):
            ServeConfig(batch_tile=2)
