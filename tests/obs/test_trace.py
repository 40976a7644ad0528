"""Request-trace tests: tree shape, sampling, recorder bounds,
cross-thread attribution, and the lock-free disabled path — all on fake
clocks."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import registry
from repro.obs.trace import (FLAG_ERROR, FLAG_SHED, NULL_TRACE,
                             SamplePolicy, TraceRecorder, Tracer,
                             activate_context, add_trace_event,
                             capture_context, current_trace, flag_trace,
                             set_tracing_enabled, trace_span)


class TickClock:
    """Deterministic clock: every read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def make_tracer(**kwargs):
    kwargs.setdefault("recorder", TraceRecorder())
    kwargs.setdefault("clock", TickClock())
    counter = iter(range(10_000))
    kwargs.setdefault("id_factory", lambda: f"t{next(counter):04d}")
    return Tracer(**kwargs)


class TestTraceTree:
    def test_span_tree_nests_and_times(self):
        tracer = make_tracer()
        with tracer.trace("req") as trace:
            with trace_span("outer"):
                with trace_span("inner"):
                    pass
            with trace_span("sibling"):
                pass
        row = trace.to_row()
        assert row["type"] == "trace"
        assert row["trace_id"] == "t0000"
        root = row["spans"]
        assert root["name"] == "req"
        assert [c["name"] for c in root["children"]] == ["outer", "sibling"]
        assert root["children"][0]["children"][0]["name"] == "inner"
        # TickClock: every read advances 1s, so durations are positive
        # and children start after their parents
        assert root["duration_ms"] > 0
        outer = root["children"][0]
        assert outer["start_ms"] > root["start_ms"]
        assert outer["duration_ms"] > 0

    def test_events_carry_kind_attrs_and_order(self):
        tracer = make_tracer()
        with tracer.trace("req"):
            add_trace_event("breaker", breaker="text", to_state="open")
            with trace_span("tier/cached"):
                add_trace_event("cache", cache="stale", hit=False)
        row = tracer.recorder.snapshot()[0]
        root = row["spans"]
        assert root["events"][0]["kind"] == "breaker"
        assert root["events"][0]["attrs"]["to_state"] == "open"
        nested = root["children"][0]["events"][0]
        assert nested["kind"] == "cache"
        assert nested["attrs"] == {"cache": "stale", "hit": False}
        # causal order: the breaker event precedes the tier span
        assert root["events"][0]["at_ms"] < root["children"][0]["start_ms"]

    def test_ambient_helpers_are_noops_without_active_trace(self):
        assert current_trace() is None
        with trace_span("orphan") as span:
            assert span is None
        add_trace_event("ignored")
        flag_trace("ignored")  # nothing raised, nothing recorded

    def test_current_trace_restored_after_activation(self):
        tracer = make_tracer()
        trace = tracer.start("req")
        with trace.activate():
            assert current_trace() is trace
        assert current_trace() is None


class TestSampling:
    def test_rate_zero_drops_unflagged(self):
        tracer = make_tracer(policy=SamplePolicy(rate=0.0))
        with tracer.trace("req"):
            pass
        assert len(tracer.recorder) == 0
        assert registry().counter("obs.trace.unsampled").value == 1

    @pytest.mark.parametrize("flag", [FLAG_ERROR, FLAG_SHED])
    def test_flagged_traces_always_kept(self, flag):
        tracer = make_tracer(policy=SamplePolicy(rate=0.0))
        with tracer.trace("req"):
            flag_trace(flag)
        [row] = tracer.recorder.snapshot()
        assert row["flags"] == [flag]
        assert row["sampled"] == "forced"

    def test_rate_one_keeps_everything(self):
        tracer = make_tracer(policy=SamplePolicy(rate=1.0))
        for _ in range(5):
            with tracer.trace("req"):
                pass
        assert len(tracer.recorder) == 5
        assert registry().counter("obs.trace.kept").value == 5

    def test_fractional_rate_is_deterministic_with_injected_rng(self):
        import random

        policy = SamplePolicy(rate=0.5, rng=random.Random(7))
        reference = random.Random(7)
        expected = [reference.random() < 0.5 for _ in range(20)]
        tracer = make_tracer(policy=policy)
        for _ in range(20):
            with tracer.trace("req"):
                pass
        assert len(tracer.recorder) == sum(expected)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            SamplePolicy(rate=1.5)

    def test_finish_is_idempotent(self):
        tracer = make_tracer()
        trace = tracer.start("req")
        assert trace.finish() is True
        assert trace.finish() is False
        assert len(tracer.recorder) == 1


class TestRecorder:
    def test_bounded_capacity_keeps_newest(self):
        recorder = TraceRecorder(capacity=3)
        tracer = make_tracer(recorder=recorder)
        for _ in range(5):
            with tracer.trace("req"):
                pass
        rows = recorder.snapshot()
        assert len(rows) == 3
        assert [row["trace_id"] for row in rows] == ["t0002", "t0003",
                                                     "t0004"]
        assert recorder.evicted == 2

    def test_set_capacity_and_reset(self):
        recorder = TraceRecorder(capacity=4)
        recorder.set_capacity(2)
        assert recorder.capacity == 2
        recorder.add({"trace_id": "a"})
        recorder.reset()
        assert len(recorder) == 0
        with pytest.raises(ValueError):
            recorder.set_capacity(0)


class _PoisonLock:
    """A lock stand-in that fails the test if ever acquired."""

    def __enter__(self):
        raise AssertionError("recorder lock acquired while tracing disabled")

    def __exit__(self, *exc):  # pragma: no cover - never reached
        return False


class TestDisabledPath:
    def test_disabled_start_returns_null_trace(self):
        set_tracing_enabled(False)
        tracer = make_tracer()
        trace = tracer.start("req")
        assert trace is NULL_TRACE
        assert trace.trace_id is None

    def test_disabled_path_never_touches_recorder_or_trace_locks(self):
        set_tracing_enabled(False)
        recorder = TraceRecorder()
        recorder._lock = _PoisonLock()
        tracer = make_tracer(recorder=recorder)
        with tracer.trace("req"):
            with trace_span("child"):
                add_trace_event("noop")
            flag_trace(FLAG_ERROR)
        assert len(recorder._rows) == 0

    def test_disabled_mints_no_ids_and_counts_nothing(self):
        set_tracing_enabled(False)
        minted = []
        tracer = make_tracer(id_factory=lambda: minted.append(1) or "x")
        with tracer.trace("req"):
            pass
        assert minted == []
        assert registry().counter("obs.trace.started").value == 0


class TestCrossThread:
    def test_captured_context_attributes_spans_to_owner(self):
        tracer = make_tracer(clock=TickClock(0.001))
        with tracer.trace("req") as trace:
            with trace_span("dispatch"):
                ctx = capture_context()

                def work(i):
                    with activate_context(ctx), trace_span(f"chunk{i}"):
                        return threading.get_ident()

                with ThreadPoolExecutor(max_workers=2) as pool:
                    idents = set(pool.map(work, range(4)))
        assert len(idents) >= 1  # genuinely ran on pool threads
        row = trace.to_row()
        dispatch = row["spans"]["children"][0]
        names = sorted(child["name"] for child in dispatch["children"])
        assert names == ["chunk0", "chunk1", "chunk2", "chunk3"]

    def test_concurrent_traces_do_not_leak_spans(self):
        tracer = make_tracer(clock=TickClock(0.001))
        barrier = threading.Barrier(2)
        rows = {}

        def request(tag):
            with tracer.trace(f"req-{tag}") as trace:
                barrier.wait(timeout=5)
                ctx = capture_context()

                def chunk():
                    with activate_context(ctx), trace_span(f"work-{tag}"):
                        pass

                with ThreadPoolExecutor(max_workers=2) as pool:
                    list(pool.map(lambda _: chunk(), range(3)))
                barrier.wait(timeout=5)
            rows[tag] = trace.to_row()

        threads = [threading.Thread(target=request, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        for tag in ("a", "b"):
            children = rows[tag]["spans"]["children"]
            assert len(children) == 3
            assert {child["name"] for child in children} == {f"work-{tag}"}

    def test_activate_context_none_is_noop(self):
        with activate_context(None):
            assert current_trace() is None
