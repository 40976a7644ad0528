"""MatchService fault-injection suite: hung, flaky and pinned backends.

Faults are injected by shadowing ``_text_queries`` on the shared
fitted matcher instance (restored via context manager): the text rows
of a score are the first thing scoring reads, so a hung or flaky text
backend takes exactly this path in production.

Scoring runs once, in ``warmup()``, which cuts every vertex's whole
ranking into the answer table.  A request, whatever its ``top_k``, is a
slice of that table: a backend that hangs or raises after warm-up is
never reached, and one that fails warm-up fails it loudly, as a typed
``internal`` answer, until a warm-up succeeds.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.core.matcher import CrossEM
from repro.obs import registry
from repro.serve import MatchService, ServeConfig

#: deeper than the head the ``table`` op ships (the suite's world has
#: 20 images)
PAST_TABLE = 17


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
    def test_deadline_bounded_return(self, make_service, fitted_soft):
        """A backend that hangs after warm-up is never called: a deep
        request with a tight budget is answered in full, well inside
        the stall."""
        service = make_service()
        vertex = fitted_soft.vertex_ids[1]
        stall = 0.08
        with encoder_fault(fitted_soft, hang(stall)):
            started = time.monotonic()
            response = service.handle({"vertex": vertex, "budget_ms": 20,
                                       "top_k": PAST_TABLE})
            wall = time.monotonic() - started
        assert response["ok"] is True and response["tier"] == "full"
        assert len(response["matches"]) == PAST_TABLE
        assert wall < stall


class SteppingClock:
    """A clock that moves 10 ms on every read: any budget under that is
    blown by the time anything could look at it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 0.01
        return self.now


class TestBlownBudget:
    """A blown budget is never an error: every answer is a slice of the
    table, already computed, so it is answered in full at any depth."""

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

    def test_blown_budget_past_16_is_the_full_answer(
            self, make_service, fitted_soft):
        vertex = fitted_soft.vertex_ids[2]
        response = self.make_blown(fitted_soft).handle(
            {"vertex": vertex, "top_k": PAST_TABLE, "budget_ms": 1})
        assert response["ok"] is True and response["degraded"] is False
        full = make_service().handle({"vertex": vertex,
                                      "top_k": PAST_TABLE})
        assert response["matches"] == full["matches"]
        assert len(response["matches"]) == PAST_TABLE


class TestFlakyEncoder:
    def test_backend_error_is_internal_then_full_resumes(self, fitted_soft):
        """A backend that raises while the table is built fails every
        request as ``internal``; once it recovers, the next request
        builds the table and full service resumes."""
        service = MatchService(fitted_soft)
        vertex = fitted_soft.vertex_ids[0]
        request = {"vertex": vertex, "top_k": PAST_TABLE}
        with encoder_fault(fitted_soft, explode(RuntimeError("flaky"))):
            response = service.handle(request)
        assert response["ok"] is False
        assert response["error"]["type"] == "internal"
        assert "flaky" in response["error"]["message"]
        recovered = service.handle(request)
        assert recovered["tier"] == "full"
        assert len(recovered["matches"]) == PAST_TABLE


class TestConstruction:
    def test_unfitted_matcher_rejected(self, tiny_bundle):
        with pytest.raises(ValueError, match="fitted"):
            MatchService(CrossEM(tiny_bundle))

    @pytest.mark.parametrize("kwargs", [
        dict(trace_capacity=0), dict(shard_slot=0),
        dict(trace_sample_rate=1.5),
        dict(top_k_default=0), dict(shard_slot=0, shard_count=0),
        dict(shard_slot=2, shard_count=2),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
