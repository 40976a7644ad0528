"""Request tracing through the serve layer, on fake clocks.

Every response must carry a ``trace_id``; error, deadline and shed
requests must be retained even at sample rate 0; breaker flips and
deadline checks must land inside the owning request's trace; with
tracing disabled nothing is minted or recorded.  Scenarios about the
scoring call ask for ``PAST_TABLE`` matches: a smaller request is a
slice of the answer table and makes no scoring call to trace or fail.
"""

import itertools
import threading

import pytest

from repro.obs.trace import (SamplePolicy, TraceRecorder, Tracer,
                             set_tracing_enabled)
from repro.serve import MatchService, MicroBatcher, ServeConfig

from .test_deadline import FakeClock
from .test_service import PAST_TABLE


class AutoClock(FakeClock):
    """A FakeClock that also advances a little on every read, so
    deadlines actually elapse without real time passing."""

    def __init__(self, start: float = 100.0, step: float = 0.01) -> None:
        super().__init__(start)
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def make_traced_service(fitted_soft, *, rate=1.0, clock=None,
                        trace_capacity=64, **overrides):
    clock = clock if clock is not None else FakeClock()
    ids = (f"trace{i:04d}" for i in itertools.count())
    recorder = TraceRecorder(capacity=trace_capacity)
    tracer = Tracer(policy=SamplePolicy(rate=rate), recorder=recorder,
                    clock=clock, id_factory=lambda: next(ids))
    settings = dict(breaker_window=4, breaker_min_calls=2,
                    breaker_failure_threshold=0.5,
                    breaker_cooldown_ms=60_000.0)
    settings.update(overrides)
    service = MatchService(fitted_soft, config=ServeConfig(**settings),
                           clock=clock, tracer=tracer).warmup()
    return service, recorder


def shed_by_full_batcher(service, request):
    """``request``'s answer, asked past the answer table, from a batcher
    whose one slot is taken by a call the scorer is still holding (a
    hit never takes a slot, so it could not be shed)."""
    gate = threading.Event()
    handle_batch = service.handle_batch

    def held(requests):
        assert gate.wait(timeout=30)
        return handle_batch(requests)

    service.handle_batch = held
    batcher = MicroBatcher(service, max_pending=1)
    answers = []
    batcher.submit({"vertex": request["vertex"], "top_k": PAST_TABLE},
                   answers.append)
    # refused by the submitter
    batcher.submit(dict(request, top_k=PAST_TABLE), answers.append)
    [shed] = answers  # ... while the admitted one is still held
    gate.set()
    assert batcher.drain()
    assert len(answers) == 2 and answers[1]["ok"] is True
    return shed


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
        assert "matcher/score" in names
        # the parsed request is recorded before any scoring work
        [request] = events_of(row["spans"], "request")
        tier_span = next(c for c in row["spans"]["children"]
                         if c["name"] == "tier/full")
        assert request["at_ms"] <= tier_span["start_ms"]
        # the matcher's stage hooks leave typed events inside the score;
        # a served query never re-runs the text tower: its text rows are
        # a hit on the frozen matrix warmup built
        stages = [e["attrs"]["stage"]
                  for e in events_of(row["spans"], "stage")]
        assert "score" in stages
        assert "encode_text" not in stages
        prompt_hits = [e["attrs"]["hit"]
                       for e in events_of(row["spans"], "cache")
                       if e["attrs"]["cache"] == "prompt"]
        assert prompt_hits == [True]

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

    def test_lone_batched_query_is_scored_inside_its_trace(self,
                                                           fitted_soft):
        """What a lone TCP query gets: ``handle_batch([r])`` scores it
        inside the request's own trace, so the retained trace shows the
        matcher's span under ``tier/full`` (a pre-fetched group member
        shows only the ``batch`` event — its scoring was shared)."""
        service, recorder = make_traced_service(fitted_soft)
        v = fitted_soft.vertex_ids
        service.handle_batch([{"vertex": v[0], "top_k": PAST_TABLE}])
        service.handle_batch([{"vertex": v[1], "top_k": PAST_TABLE},
                              {"vertex": v[2], "top_k": PAST_TABLE}])
        lone, fused, _ = recorder.snapshot()
        tier_span = next(c for c in lone["spans"]["children"]
                         if c["name"] == "tier/full")
        assert "matcher/score" in span_names(tier_span)
        assert not events_of(lone["spans"], "batch")
        assert "matcher/score" not in span_names(fused["spans"])
        assert events_of(fused["spans"], "batch")


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

    def test_deadline_blown_requests_always_sampled(self, fitted_soft):
        clock = AutoClock(step=0.01)  # 10ms per clock read
        service, recorder = make_traced_service(fitted_soft, rate=0.0,
                                                clock=clock)
        response = service.handle({"vertex": fitted_soft.vertex_ids[0],
                                   "top_k": PAST_TABLE, "budget_ms": 1})
        assert response["ok"] is False
        assert response["error"]["type"] == "deadline_exceeded"
        [row] = recorder.snapshot()
        assert "deadline" in row["flags"] and "error" in row["flags"]
        assert events_of(row["spans"], "deadline")

    def test_breaker_transition_lands_in_request_trace(self, fitted_soft,
                                                       monkeypatch):
        service, recorder = make_traced_service(
            fitted_soft, rate=0.0, breaker_window=2, breaker_min_calls=1)
        monkeypatch.setattr(
            service.matcher, "score",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        response = service.handle({"vertex": fitted_soft.vertex_ids[0],
                                   "top_k": PAST_TABLE})
        assert response["error"]["type"] == "internal"
        [row] = recorder.snapshot()
        [flip] = events_of(row["spans"], "breaker")
        assert flip["attrs"] == {"breaker": "text", "from_state": "closed",
                                 "to_state": "open"}

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
        assert "(1/1)" in event["attrs"]["reason"]


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
