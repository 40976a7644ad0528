"""MatchService fault-injection suite: hung, flaky and pinned backends.

Faults are injected by shadowing ``_text_queries`` on the shared
fitted matcher instance (restored via context manager): the text rows
of a score are the first thing the breaker-guarded scoring call reads,
so a hung or flaky text backend takes exactly this path in production.
(The text *tower* runs once, at ``warmup()``, which builds the frozen
matrix ``_text_queries`` slices — a served query never re-encodes.)

A request with ``top_k <= table_k`` never reaches that call: it is a
slice of the answer table ``warmup()`` built, answered with no breaker
call and no deadline check.  The fault scenarios therefore ask for
``PAST_TABLE`` matches — the scored path, the one that can still hang,
explode or pin, and whose failure is the request's typed error.
"""

from __future__ import annotations

import contextlib
import json
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
        """With the breaker open the service degrades to what the answer
        table holds: a past-table request fails fast with
        ``breaker_open``, a table hit is still answered in full."""
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
            # and the same request now fails fast with the typed error
            started = time.monotonic()
            third = service.handle(dict(request, id="c"))
            assert time.monotonic() - started < 0.08
            # a request the answer table covers never asks the breaker
            hit = service.handle({"id": "d", "vertex": vertex, "top_k": 3,
                                  "budget_ms": 20})
        assert third["ok"] is False
        assert third["error"]["type"] == "breaker_open"
        assert hit["ok"] is True and hit["tier"] == "full"
        assert hit["degraded"] is False
        assert registry().counter("serve.error.breaker_open").value == 1

    def test_deadline_bounded_return(self, make_service, fitted_soft):
        service = make_service()
        vertex = fitted_soft.vertex_ids[1]
        stall = 0.08
        with encoder_fault(fitted_soft, hang(stall)):
            started = time.monotonic()
            response = service.handle({"vertex": vertex, "budget_ms": 20,
                                       "top_k": PAST_TABLE})
            wall = time.monotonic() - started
        # past the table the blown budget is the request's error —
        # within budget plus roughly one stage
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


class TestBlownBudget:
    """A blown budget is a typed error only where it can matter: a
    table hit is already computed, so it is answered in full; a request
    past the table surfaces ``deadline_exceeded``."""

    def make_blown(self, fitted_soft):
        return MatchService(fitted_soft, clock=SteppingClock()).warmup()

    def test_blown_budget_table_hit_is_the_full_answer(
            self, make_service, fitted_soft):
        vertex = fitted_soft.vertex_ids[2]
        response = self.make_blown(fitted_soft).handle(
            {"id": "late", "vertex": vertex, "top_k": 2, "budget_ms": 1})
        assert response["ok"] is True
        assert response["tier"] == "full"
        assert response["degraded"] is False
        assert "reason" not in response
        full = make_service().handle({"vertex": vertex, "top_k": 2})
        assert response["matches"] == full["matches"]

    def test_blown_budget_past_the_table_is_deadline_exceeded(
            self, fitted_soft):
        response = self.make_blown(fitted_soft).handle(
            {"vertex": fitted_soft.vertex_ids[2], "top_k": PAST_TABLE,
             "budget_ms": 1})
        assert response["ok"] is False
        assert response["error"]["type"] == "deadline_exceeded"
        assert registry().counter("serve.deadline_exceeded_total").value == 1


class TestFlakyEncoder:
    def test_backend_error_is_internal_then_full_resumes(self, make_service,
                                                         fitted_soft):
        service = make_service(breaker_min_calls=3)
        vertex = fitted_soft.vertex_ids[0]
        request = {"vertex": vertex, "top_k": PAST_TABLE}
        with encoder_fault(fitted_soft, explode(RuntimeError("flaky"))):
            response = service.handle(request)
        assert response["ok"] is False
        assert response["error"]["type"] == "internal"
        assert "flaky" in response["error"]["message"]
        # and once the backend recovers, full service resumes
        recovered = service.handle(request)
        assert recovered["tier"] == "full"


@pytest.fixture(scope="module")
def fitted_hard(tiny_bundle, tiny_dataset):
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0,
                                                 seed=3))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    return matcher


@pytest.fixture(params=["soft", "hard"])
def world(request, fitted_soft, fitted_hard):
    return fitted_soft if request.param == "soft" else fitted_hard


class TestBreakerOpenTableHit:
    def test_table_hit_ignores_an_open_breaker(self, world):
        """An open breaker guards the backend, and a table hit does not
        call it: the answer is the closed-breaker answer, byte for
        byte, undegraded."""
        service = MatchService(world).warmup()
        requests = [{"id": i, "vertex": v, "top_k": 5}
                    for i, v in enumerate(world.vertex_ids)]
        closed = [service.handle(r) for r in requests]
        service.text_breaker.force_open()
        opened = [service.handle(r) for r in requests]
        for before, after in zip(closed, opened):
            assert after["ok"] is True
            assert after["tier"] == "full" and after["degraded"] is False
            assert "reason" not in after
            assert json.dumps(after["matches"]) == \
                json.dumps(before["matches"])
        past = service.handle({"vertex": world.vertex_ids[0],
                               "top_k": PAST_TABLE})
        assert past["error"]["type"] == "breaker_open"


class TestBreakerCountsBackendCalls:
    def test_table_hits_do_not_dilute_the_window(self, make_service,
                                                 fitted_soft):
        """Two table hits per past-table request, the backend hung: only
        the past-table calls reach the backend, so only they land in the
        window, and their failures alone open the breaker."""
        service = make_service(breaker_window=8, breaker_min_calls=3)
        reg = registry()
        warm_successes = reg.counter(
            "serve.breaker.text.successes_total").value
        vertex = fitted_soft.vertex_ids[0]
        failures = 0
        with encoder_fault(fitted_soft, hang(0.05)):
            for _ in range(4):
                for top_k in (1, 3):
                    hit = service.handle({"vertex": vertex, "top_k": top_k,
                                          "budget_ms": 20})
                    assert hit["ok"] is True and hit["tier"] == "full"
                past = service.handle({"vertex": vertex,
                                       "top_k": PAST_TABLE,
                                       "budget_ms": 20})
                assert past["ok"] is False
                if past["error"]["type"] == "breaker_open":
                    break
                assert past["error"]["type"] == "deadline_exceeded"
                failures += 1
        assert reg.gauge("serve.breaker.text.state").value == 2  # open
        assert past["error"]["type"] == "breaker_open"
        assert reg.counter("serve.breaker.text.failures_total").value \
            == failures
        assert reg.counter("serve.breaker.text.successes_total").value \
            == warm_successes


class TestConstruction:
    def test_unfitted_matcher_rejected(self, tiny_bundle):
        with pytest.raises(ValueError, match="fitted"):
            MatchService(CrossEM(tiny_bundle))

    @pytest.mark.parametrize("kwargs", [
        dict(table_k=0), dict(shard_slot=0), dict(default_budget_ms=0),
        dict(top_k_default=0), dict(batch_tile=0),
        dict(shard_slot=2, shard_count=2),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
