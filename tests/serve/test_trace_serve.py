"""Request tracing through the serve layer, on fake clocks.

Every response must carry a ``trace_id``; error and shed requests must
be retained even at sample rate 0; a request's slice of the answer
table lands inside its own trace; with tracing disabled nothing is
minted or recorded.
"""

import itertools

import pytest

from repro.obs.trace import (SamplePolicy, TraceRecorder, Tracer,
                             set_tracing_enabled)
from repro.serve import MatchService, ServeConfig

from .conftest import FakeClock
from .test_service import PAST_TABLE


def make_traced_service(fitted_soft, *, rate=1.0, clock=None,
                        trace_capacity=64, **overrides):
    clock = clock if clock is not None else FakeClock()
    ids = (f"trace{i:04d}" for i in itertools.count())
    recorder = TraceRecorder(capacity=trace_capacity)
    tracer = Tracer(policy=SamplePolicy(rate=rate), recorder=recorder,
                    clock=clock, id_factory=lambda: next(ids))
    service = MatchService(fitted_soft, config=ServeConfig(**overrides),
                           clock=clock, tracer=tracer).warmup()
    return service, recorder


def shed_by_full_batcher(service, request):
    """``request``'s answer when a door refuses to admit it — what a
    connection past its outstanding cap gets: the one refusal shape,
    :meth:`MatchService.reject`."""
    return service.reject(request, "overloaded",
                          "connection has 1 responses outstanding (cap 1)")


def span_names(span, acc=None):
    acc = acc if acc is not None else []
    acc.append(span["name"])
    for child in span["children"]:
        span_names(child, acc)
    return acc


def events_of(span, kind, acc=None):
    acc = acc if acc is not None else []
    acc.extend(e for e in span["events"] if e["kind"] == kind)
    for child in span["children"]:
        events_of(child, kind, acc)
    return acc


class TestTraceIds:
    def test_every_response_carries_a_unique_trace_id(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        vertex = fitted_soft.vertex_ids[0]
        responses = [service.handle({"vertex": vertex}) for _ in range(3)]
        ids = [response["trace_id"] for response in responses]
        assert ids == ["trace0000", "trace0001", "trace0002"]
        assert [row["trace_id"] for row in recorder.snapshot()] == ids

    def test_error_response_also_carries_trace_id(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        response = service.handle({"vertex": "nope"})
        assert response["ok"] is False
        assert response["trace_id"] == "trace0000"

    def test_request_spans_and_events_in_causal_order(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        response = service.handle({"vertex": fitted_soft.vertex_ids[0],
                                   "top_k": PAST_TABLE})
        assert response["ok"] is True and response["tier"] == "full"
        [row] = recorder.snapshot()
        names = span_names(row["spans"])
        assert names[0] == "serve.request"
        assert "tier/full" in names
        # a deep request is a slice too: nothing is scored or encoded
        assert "matcher/score" not in names
        assert not events_of(row["spans"], "stage")
        # the parsed request is recorded before the slice is cut
        [request] = events_of(row["spans"], "request")
        tier_span = next(c for c in row["spans"]["children"]
                         if c["name"] == "tier/full")
        assert request["at_ms"] <= tier_span["start_ms"]

    def test_table_hit_records_its_cache_event(self, fitted_soft):
        """A request the answer table covers is a slice under
        ``tier/full``: no scoring span, one ``table`` cache hit."""
        service, recorder = make_traced_service(fitted_soft)
        response = service.handle({"vertex": fitted_soft.vertex_ids[0],
                                   "top_k": 3})
        assert response["ok"] is True and response["tier"] == "full"
        [row] = recorder.snapshot()
        names = span_names(row["spans"])
        assert "tier/full" in names
        assert "matcher/score" not in names
        caches = [e["attrs"] for e in events_of(row["spans"], "cache")]
        assert caches == [{"cache": "table", "hit": True}]


class TestForcedRetention:
    def test_errors_always_sampled_at_rate_zero(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft, rate=0.0)
        service.handle({"vertex": fitted_soft.vertex_ids[0]})  # ok: dropped
        service.handle({"not": "valid"})                       # error: kept
        [row] = recorder.snapshot()
        assert row["flags"] == ["error"]
        assert row["sampled"] == "forced"
        [event] = events_of(row["spans"], "error")
        assert event["attrs"]["code"] == "bad_request"

    def test_shed_requests_get_their_own_forced_trace(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft, rate=0.0)
        shed = shed_by_full_batcher(
            service, {"vertex": fitted_soft.vertex_ids[0]})
        assert shed["ok"] is False
        assert shed["error"]["type"] == "overloaded"
        assert shed["trace_id"] == "trace0000"
        [row] = recorder.snapshot()
        assert row["flags"] == ["error", "shed"]
        [event] = events_of(row["spans"], "shed")
        assert "(cap 1)" in event["attrs"]["reason"]


class TestTraceJoin:
    """Cross-process propagation (DESIGN.md §15): a request carrying a
    ``trace`` context *joins* the caller's trace instead of minting —
    the id echoes back, the caller-side parent is recorded, and
    ``return_spans`` ships the finished subtree in the response."""

    def test_joined_id_echoes_and_records_with_parent(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        response = service.handle(
            {"vertex": fitted_soft.vertex_ids[0],
             "trace": {"trace_id": "router-abc", "parent_span": "s3"}})
        assert response["ok"] is True
        assert response["trace_id"] == "router-abc"
        [row] = recorder.snapshot()
        assert row["trace_id"] == "router-abc"
        assert row["parent_span"] == "s3"

    def test_return_spans_ships_the_subtree(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        response = service.handle(
            {"vertex": fitted_soft.vertex_ids[0],
             "trace": {"trace_id": "router-abc", "parent_span": "s3",
                       "return_spans": True}})
        wire = response["trace"]
        assert wire["parent_span"] == "s3"
        assert wire["spans"]["name"] == "serve.request"
        assert "tier/full" in span_names(wire["spans"])

    def test_without_return_spans_no_subtree_ships(self, fitted_soft):
        service, _ = make_traced_service(fitted_soft)
        response = service.handle(
            {"vertex": fitted_soft.vertex_ids[0],
             "trace": {"trace_id": "router-abc", "parent_span": "s3"}})
        assert "trace" not in response

    def test_return_spans_respects_local_sampling(self, fitted_soft):
        """Rate 0 and a healthy answer: the id still echoes, but the
        unretained subtree must not ship — retention is local."""
        service, recorder = make_traced_service(fitted_soft, rate=0.0)
        response = service.handle(
            {"vertex": fitted_soft.vertex_ids[0],
             "trace": {"trace_id": "router-abc", "return_spans": True}})
        assert response["trace_id"] == "router-abc"
        assert "trace" not in response
        assert len(recorder) == 0

    def test_malformed_context_mints_fresh_and_counts(self, fitted_soft):
        from repro.obs import registry

        service, _ = make_traced_service(fitted_soft)
        bad_contexts = [17, {"trace_id": ""}, {"trace_id": 42},
                        {"parent_span": "s1"}]
        for i, ctx in enumerate(bad_contexts):
            response = service.handle(
                {"vertex": fitted_soft.vertex_ids[0], "trace": ctx})
            assert response["trace_id"] == f"trace{i:04d}", ctx
        assert registry().counter("serve.trace.bad_context").value \
            == len(bad_contexts)

    def test_non_string_parent_is_dropped_not_fatal(self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        response = service.handle(
            {"vertex": fitted_soft.vertex_ids[0],
             "trace": {"trace_id": "router-abc", "parent_span": 7}})
        assert response["trace_id"] == "router-abc"
        [row] = recorder.snapshot()
        assert "parent_span" not in row

    def test_shed_rejection_joins_and_ships_forced_trace(self,
                                                         fitted_soft):
        service, recorder = make_traced_service(fitted_soft, rate=0.0)
        shed = shed_by_full_batcher(
            service,
            {"vertex": fitted_soft.vertex_ids[0],
             "trace": {"trace_id": "router-shed", "parent_span": "s2",
                       "return_spans": True}})
        assert shed["ok"] is False
        assert shed["error"]["type"] == "overloaded"
        assert shed["trace_id"] == "router-shed"
        assert "shed" in shed["trace"]["flags"]
        [row] = recorder.snapshot()
        assert row["trace_id"] == "router-shed"
        assert row["parent_span"] == "s2"


class TestDisabled:
    def test_disabled_tracing_omits_trace_id_and_records_nothing(
            self, fitted_soft):
        service, recorder = make_traced_service(fitted_soft)
        set_tracing_enabled(False)
        response = service.handle({"vertex": fitted_soft.vertex_ids[0]})
        assert response["ok"] is True
        assert "trace_id" not in response
        assert len(recorder) == 0


class TestConfig:
    @pytest.mark.parametrize("overrides", [dict(trace_sample_rate=1.5),
                                           dict(trace_sample_rate=-0.1),
                                           dict(trace_capacity=0)])
    def test_invalid_trace_settings_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServeConfig(**overrides)
