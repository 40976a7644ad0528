"""MatchService fault-injection suite: hung, flaky and pinned backends.

Faults are injected by shadowing ``_text_queries`` on the shared
fitted matcher instance (restored via context manager): the text rows
of a score are the first thing the breaker-guarded scoring call reads,
so a hung or flaky text backend takes exactly this path in production.
(The text *tower* runs once, at ``warmup()``, which builds the frozen
matrix ``_text_queries`` slices — a served query never re-encodes.)

A request with ``top_k <= table_k`` never reaches that call: it is a
slice of the answer table ``warmup()`` built.  The fault scenarios
therefore ask for ``PAST_TABLE`` matches — the fall-through path, the
one that can still hang, explode or pin.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry
from repro.serve import MatchService, ServeConfig

#: the smallest ``top_k`` the answer table does not cover, so it is
#: scored through the tile kernel (the suite's world has 20 images)
PAST_TABLE = ServeConfig().table_k + 1


@contextlib.contextmanager
def encoder_fault(matcher, make_wrapper):
    """Temporarily replace ``matcher._text_queries`` with
    ``make_wrapper(original)`` via an instance attribute."""
    original = matcher._text_queries
    matcher._text_queries = make_wrapper(original)
    try:
        yield
    finally:
        del matcher._text_queries


def hang(delay):
    """A text backend that stalls ``delay`` seconds before handing out
    the rows — the next stage hook (the image operand's) notices the
    blown budget right after the stall."""
    def make(original):
        def wrapper(vertex_ids):
            time.sleep(delay)
            return original(vertex_ids)
        return wrapper
    return make


def explode(exc):
    def make(original):
        def wrapper(vertex_ids):
            raise exc
        return wrapper
    return make


class TestHappyPath:
    def test_full_tier_bitwise_matches_the_matcher(self, make_service,
                                                   fitted_soft):
        service = make_service()
        vertex = fitted_soft.vertex_ids[0]
        response = service.handle({"id": "r1", "vertex": vertex, "top_k": 3})
        assert response["ok"] is True
        assert response["id"] == "r1"
        assert response["vertex"] == vertex
        assert response["tier"] == "full"
        assert response["degraded"] is False
        assert "reason" not in response
        assert response["elapsed_ms"] >= 0
        # the oracle is the vertex's row of a batch_tile-row operand:
        # that tile is what defines a served score (DESIGN.md §13)
        expected = fitted_soft.score(
            [vertex] * service.config.batch_tile)[0]
        image_ids = [img.image_id for img in fitted_soft.images]
        assert len(response["matches"]) == 3
        scores = [m["score"] for m in response["matches"]]
        assert scores == sorted(scores, reverse=True)
        for match in response["matches"]:
            row = image_ids.index(match["image"])
            assert match["score"] == float(expected[row])  # bitwise
        reg = registry()
        assert reg.counter("serve.ok_total").value == 1
        assert reg.counter("serve.tier.full").value == 1
        assert reg.counter("serve.degraded_total").value == 0

    def test_top_k_clamped_to_image_count(self, make_service, fitted_soft):
        service = make_service()
        response = service.handle({"id": 1,
                                   "vertex": fitted_soft.vertex_ids[0],
                                   "top_k": 10_000})
        assert response["ok"] is True
        assert len(response["matches"]) == len(fitted_soft.images)

    def test_missing_id_echoed_as_null(self, make_service, fitted_soft):
        service = make_service()
        response = service.handle({"vertex": fitted_soft.vertex_ids[0]})
        assert response["ok"] is True
        assert response["id"] is None
        assert len(response["matches"]) == 1  # top_k_default


class TestBadRequestIsolation:
    @pytest.mark.parametrize("request_body", [
        ["not", "a", "dict"],
        {"vertex": None},
        {"vertex": True},
        {"vertex": "3"},
        {"vertex": 10 ** 9},
        {"vertex": 0, "top_k": 0},
        {"vertex": 0, "top_k": "many"},
        {"vertex": 0, "budget_ms": 0},
        {"vertex": 0, "budget_ms": -5},
        {"vertex": 0, "budget_ms": "fast"},
    ], ids=["non-dict", "missing", "bool", "string", "unknown", "zero-top-k",
            "str-top-k", "zero-budget", "neg-budget", "str-budget"])
    def test_malformed_request_gets_structured_error(self, make_service,
                                                     fitted_soft,
                                                     request_body):
        if isinstance(request_body, dict) and request_body.get("vertex") == 0:
            request_body["vertex"] = fitted_soft.vertex_ids[0]
        service = make_service()
        response = service.handle(request_body)
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert response["error"]["message"]
        # the service keeps answering after the bad request
        good = service.handle({"vertex": fitted_soft.vertex_ids[0]})
        assert good["ok"] is True
        assert registry().counter("serve.error.bad_request").value == 1


class TestHungEncoder:
    def test_deadline_failures_trip_breaker_then_requests_degrade(
            self, make_service, fitted_soft):
        # warmup's successful calls already sit in the breaker window,
        # so min_calls=3 means two deadline failures trip it
        service = make_service(breaker_min_calls=3, breaker_window=4)
        vertex = fitted_soft.vertex_ids[0]
        request = {"vertex": vertex, "budget_ms": 20, "top_k": PAST_TABLE}
        with encoder_fault(fitted_soft, hang(0.08)):
            first = service.handle(dict(request, id="a"))
            second = service.handle(dict(request, id="b"))
            assert first["ok"] is False
            assert first["error"]["type"] == "deadline_exceeded"
            assert second["ok"] is False
            reg = registry()
            assert reg.gauge("serve.breaker.text.state").value == 2  # open
            assert reg.counter("serve.deadline_exceeded_total").value >= 2
            # breaker open: the sick encoder is no longer even called,
            # and the same request now succeeds from the cached tier
            third = service.handle(dict(request, id="c"))
        assert third["ok"] is True
        assert third["tier"] == "cached"
        assert third["degraded"] is True
        assert third["reason"] == "breaker_open"
        reg = registry()
        assert reg.counter("serve.tier.cached").value == 1
        assert reg.counter("serve.degraded_total").value == 1

    def test_deadline_bounded_return(self, make_service, fitted_soft):
        service = make_service()
        vertex = fitted_soft.vertex_ids[1]
        stall = 0.08
        with encoder_fault(fitted_soft, hang(stall)):
            started = time.monotonic()
            response = service.handle({"vertex": vertex, "budget_ms": 20,
                                       "top_k": PAST_TABLE})
            wall = time.monotonic() - started
        # past the table there is no stale answer, so the blown budget
        # surfaces as an error — within budget plus roughly one stage
        # (the stalled encode), far below what letting the full
        # pipeline finish would take
        assert response["ok"] is False
        assert response["error"]["type"] == "deadline_exceeded"
        assert wall >= 0.02
        assert wall < stall + 1.0


class SteppingClock:
    """A clock that moves 10 ms on every read: any budget under that is
    blown by the time the ladder first looks at it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 0.01
        return self.now


class TestStaleTier:
    """The stale tier is the answer table: it holds every vertex from
    boot, so it needs no earlier request, and it is as wide as the
    table, so a larger request misses and surfaces its own failure."""

    def make_blown(self, fitted_soft):
        return MatchService(fitted_soft, clock=SteppingClock()).warmup()

    def test_blown_budget_on_unserved_vertex_gets_stale_answer(
            self, make_service, fitted_soft):
        vertex = fitted_soft.vertex_ids[2]
        response = self.make_blown(fitted_soft).handle(
            {"id": "late", "vertex": vertex, "top_k": 2, "budget_ms": 1})
        assert response["ok"] is True
        assert response["tier"] == "stale"
        assert response["degraded"] is True
        assert response["reason"] == "deadline_pressure"
        assert registry().counter("serve.tier.stale").value == 1
        # the stale answer is the full answer, bit for bit
        full = make_service().handle({"vertex": vertex, "top_k": 2})
        assert full["tier"] == "full"
        assert response["matches"] == full["matches"]

    def test_fall_through_stale_miss_surfaces_deadline_exceeded(
            self, fitted_soft):
        response = self.make_blown(fitted_soft).handle(
            {"vertex": fitted_soft.vertex_ids[2], "top_k": PAST_TABLE,
             "budget_ms": 1})
        assert response["ok"] is False
        assert response["error"]["type"] == "deadline_exceeded"
        assert registry().counter("serve.tier.stale").value == 0


class TestFlakyEncoder:
    def test_backend_error_falls_to_cached(self, make_service, fitted_soft):
        service = make_service(breaker_min_calls=3)
        vertex = fitted_soft.vertex_ids[0]
        request = {"vertex": vertex, "top_k": PAST_TABLE}
        with encoder_fault(fitted_soft, explode(RuntimeError("flaky"))):
            response = service.handle(request)
        assert response["ok"] is True
        assert response["tier"] == "cached"
        assert response["degraded"] is True
        assert response["reason"] == "backend_error"
        # and once the backend recovers, full service resumes
        recovered = service.handle(request)
        assert recovered["tier"] == "full"


class TestCachedBitIdentity:
    def test_cached_tier_equals_standalone_hard_matcher(
            self, make_service, fitted_soft, tiny_bundle, tiny_dataset):
        service = make_service()
        service.text_breaker.force_open()
        vertex = fitted_soft.vertex_ids[1]
        response = service.handle({"vertex": vertex, "top_k": 5})
        assert response["tier"] == "cached"
        assert response["reason"] == "breaker_open"

        config = fitted_soft.config
        standalone = CrossEM(tiny_bundle, CrossEMConfig(
            prompt="hard", d=config.d, epochs=0, seed=config.seed,
            aggregator=config.aggregator))
        standalone.fit(tiny_dataset.graph, tiny_dataset.images,
                       tiny_dataset.entity_vertices)
        expected = standalone.score([vertex])[0]
        image_ids = [img.image_id for img in standalone.images]
        order = sorted(range(len(image_ids)),
                       key=lambda i: (-float(expected[i]), i))[:5]
        assert [m["image"] for m in response["matches"]] == \
            [image_ids[i] for i in order]
        for match, row in zip(response["matches"], order):
            assert match["score"] == float(expected[row])  # exact equality


class TestConstruction:
    def test_unfitted_matcher_rejected(self, tiny_bundle):
        with pytest.raises(ValueError, match="fitted"):
            MatchService(CrossEM(tiny_bundle))

    def test_discrete_matcher_is_its_own_fallback(self, tiny_bundle,
                                                  tiny_dataset):
        matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                     seed=3))
        matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                    tiny_dataset.entity_vertices)
        service = MatchService(matcher)
        assert service.fallback is matcher

    @pytest.mark.parametrize("kwargs", [
        dict(table_k=0), dict(shard_slot=0), dict(default_budget_ms=0),
        dict(top_k_default=0), dict(full_floor_ms=-1.0),
        dict(shard_slot=2, shard_count=2),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
