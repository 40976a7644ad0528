"""Micro-batcher semantics, provable on a fake clock and a stub.

:class:`BatchWindow` is pure state — these tests drive it with
explicit timestamps, so window expiry, max-batch flush, and the
non-sliding-window property are exact claims, not sleeps and hopes.
:class:`MicroBatcher` tests use a stub service (recording
``handle_batch`` calls) to pin coalescing, bypass, shedding, and drain
behaviour without a matcher in sight.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading
import time

import pytest

from repro.netserve import BatchWindow, MicroBatcher, bypasses_window
from repro.obs import registry
from repro.serve import error_response


class TestBypassesWindow:
    def test_unbounded_budget_never_bypasses(self):
        assert bypasses_window(None, window_ms=5.0) is False

    def test_tight_budget_bypasses(self):
        # default slack 2: anything under two windows dispatches alone
        assert bypasses_window(9.9, window_ms=5.0) is True
        assert bypasses_window(1.0, window_ms=5.0) is True

    def test_roomy_budget_joins_the_window(self):
        assert bypasses_window(10.0, window_ms=5.0) is False
        assert bypasses_window(500.0, window_ms=5.0) is False

    def test_zero_window_always_bypasses(self):
        assert bypasses_window(None, window_ms=0.0) is True
        assert bypasses_window(1000.0, window_ms=0.0) is True

    def test_malformed_budgets_flow_into_the_service(self):
        # they must reach _parse to be answered bad_request
        assert bypasses_window("soon", window_ms=5.0) is False
        assert bypasses_window(True, window_ms=5.0) is False
        assert bypasses_window(-3.0, window_ms=5.0) is False


class TestBatchWindow:
    def test_opens_on_first_item_only(self):
        window = BatchWindow(window_s=0.010, max_batch=8)
        assert window.flush_at() is None
        window.add("a", now=100.0)
        assert window.flush_at() == pytest.approx(100.010)
        # later arrivals do NOT slide the deadline
        window.add("b", now=100.008)
        assert window.flush_at() == pytest.approx(100.010)

    def test_due_at_expiry_not_before(self):
        window = BatchWindow(window_s=0.010, max_batch=8)
        window.add("a", now=0.0)
        assert window.due(0.009) is False
        assert window.due(0.010) is True
        assert window.due(5.0) is True

    def test_full_batch_is_due_immediately(self):
        window = BatchWindow(window_s=10.0, max_batch=2)
        assert window.add("a", now=0.0) is False
        assert window.add("b", now=0.0) is True
        assert window.due(0.0) is True  # no waiting ten seconds

    def test_drain_resets_the_window(self):
        window = BatchWindow(window_s=0.010, max_batch=8)
        window.add("a", now=0.0)
        window.add("b", now=0.001)
        assert window.drain() == ["a", "b"]
        assert len(window) == 0
        assert window.flush_at() is None
        assert window.due(99.0) is False
        # the next batch opens a fresh window at its own arrival
        window.add("c", now=7.0)
        assert window.flush_at() == pytest.approx(7.010)

    def test_trickle_cannot_postpone_flush_forever(self):
        """One item per 9ms into a 10ms window: the flush deadline is
        pinned by the FIRST item, so the second trickle arrival is
        already past due — a steady sub-window trickle flushes every
        window, it does not accumulate unboundedly."""
        window = BatchWindow(window_s=0.010, max_batch=1000)
        now = 0.0
        window.add(0, now)
        flush_at = window.flush_at()
        for i in range(1, 5):
            now += 0.009
            window.add(i, now)
            assert window.flush_at() == flush_at
        assert window.due(now) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchWindow(window_s=-1.0, max_batch=8)
        with pytest.raises(ValueError):
            BatchWindow(window_s=0.01, max_batch=0)


MS = 1e-3


def warm_dense(window: BatchWindow, now: float, count: int = 8) -> float:
    """Feed ``count`` back-to-back arrivals, let their window run out
    and complete every call, so the window's arrival measure reads
    dense; returns the time it all ended."""
    calls = 0
    for _ in range(count):
        now += 0.05 * MS
        calls += window.arrive("warm", now) is not None
    now += window.window_s
    calls += window.expire(now) is not None
    for _ in range(calls):
        assert window.complete() is None
    assert not window.sparse and not len(window) and not window.inflight
    return now


class TestDispatchRules:
    """The four rules on the pure decision core: every timestamp below
    is passed in, nothing sleeps and no thread runs."""

    def test_lone_arrival_at_an_idle_window_dispatches_at_once(self):
        window = BatchWindow(window_s=2 * MS, max_batch=16)
        assert window.arrive("a", now=5.0) == ("eager", ["a"])
        assert window.inflight == 1 and len(window) == 0
        assert window.flush_at() is None  # no window was ever opened
        assert window.complete() is None
        assert window.inflight == 0
        # sparse traffic keeps dispatching at once: 10 ms gaps, 2 ms window
        for i in range(1, 6):
            assert window.arrive(i, now=5.0 + i * 10 * MS) == ("eager", [i])
            assert window.complete() is None

    def test_arrivals_behind_a_call_in_flight_go_with_its_worker(self):
        window = BatchWindow(window_s=2 * MS, max_batch=16)
        assert window.arrive("a", now=0.0) == ("eager", ["a"])
        # the scorer is busy: sparse or not, these accumulate ...
        assert window.arrive("b", now=10 * MS) is None
        assert window.arrive("c", now=20 * MS) is None
        assert len(window) == 2 and window.sparse
        # ... and the worker that finishes "a" takes them along
        assert window.complete() == ("eager", ["b", "c"])
        assert window.inflight == 1 and len(window) == 0
        assert window.complete() is None
        assert window.inflight == 0

    def test_second_worker_busy_leaves_pending_to_the_window(self):
        window = BatchWindow(window_s=2 * MS, max_batch=16)
        window.arrive("a", now=0.0)
        window.arrive("urgent", now=10 * MS, urgent=True)
        assert window.inflight == 2
        assert window.arrive("b", now=20 * MS) is None
        # one call still in flight: the scorer is not idle
        assert window.complete() is None
        assert window.complete() == ("eager", ["b"])

    def test_dense_arrivals_rearm_the_window(self):
        window = BatchWindow(window_s=2 * MS, max_batch=4)
        now = warm_dense(window, 0.0)
        # idle, nothing pending — but a companion is expected: park
        first = now + 0.1 * MS
        assert window.arrive(0, first) is None
        assert window.flush_at() == pytest.approx(first + 2 * MS)
        assert window.arrive(1, first + 0.1 * MS) is None
        assert window.expire(first + 1.9 * MS) is None
        assert window.expire(first + 2 * MS) == ("window", [0, 1])
        assert window.complete() is None
        # and max_batch still flushes full, without the window
        later = first + 2.5 * MS
        for i in range(3):
            assert window.arrive(i, later + i * 0.1 * MS) is None
        assert window.arrive(3, later + 0.3 * MS) == ("full", [0, 1, 2, 3])
        assert len(window) == 0 and window.flush_at() is None

    def test_dense_completion_leaves_pending_to_the_window(self):
        window = BatchWindow(window_s=2 * MS, max_batch=16)
        now = warm_dense(window, 0.0)
        assert window.arrive("a", now + 0.1 * MS) is None
        batch = window.expire(now + 2.1 * MS)
        assert batch == ("window", ["a"])
        assert window.arrive("b", now + 2.2 * MS) is None
        assert window.arrive("c", now + 2.3 * MS) is None
        # companions keep coming: the completing worker does not cut
        # the batch short, the window (or max_batch) closes it
        assert window.complete() is None
        assert len(window) == 2
        assert window.expire(now + 4.2 * MS) == ("window", ["b", "c"])

    def test_one_long_pause_is_not_sparse_traffic_a_run_of_them_is(self):
        """A closed loop pauses once per round while its own batch is
        scored; every gap is one vote however long it lasted, so that
        pause alone must not flip the estimate."""
        window = BatchWindow(window_s=2 * MS, max_batch=16)
        now = warm_dense(window, 0.0)
        now += 500 * MS  # 250 windows of silence
        assert window.arrive("a", now) is None
        assert not window.sparse
        assert window.expire(window.flush_at()) is not None
        window.complete()
        pauses = 1
        while not window.sparse:
            now += 500 * MS
            dispatch = window.arrive("b", now) or \
                window.expire(window.flush_at())
            assert dispatch is not None
            window.complete()
            pauses += 1
        assert 2 <= pauses <= 5
        assert window.arrive("c", now + 500 * MS) == ("eager", ["c"])

    def test_tight_budget_bypasses_whatever_the_state(self):
        window = BatchWindow(window_s=2 * MS, max_batch=16)
        now = warm_dense(window, 0.0)
        assert window.arrive("parked", now + 0.1 * MS) is None
        assert window.arrive("urgent", now + 0.2 * MS, urgent=True) == \
            ("bypass", ["urgent"])
        # alone: the parked request keeps its window
        assert len(window) == 1
        assert window.flush_at() == pytest.approx(now + 2.1 * MS)

    def test_hurry_ends_windowing(self):
        window = BatchWindow(window_s=60.0, max_batch=16)
        now = warm_dense(window, 0.0)
        assert window.arrive("parked", now + 0.1 * MS) is None
        window.hurried = True
        assert window.expire(now + 0.2 * MS) == ("window", ["parked"])
        assert window.arrive("late", now + 0.3 * MS) == ("hurry", ["late"])


class AlwaysSparse(BatchWindow):
    """The rejected work-conserving variant: dispatch whenever idle."""

    sparse = property(lambda self: True)


def closed_loop_batch_sizes(window: BatchWindow, *, clients: int = 16,
                            rounds: int = 100, workers: int = 2,
                            tile: int = 8, tile_s: float,
                            overhead_s: float = 0.2 * MS,
                            turnaround_s: float = 0.05 * MS):
    """Drive ``window`` with ``clients`` callers that each resend as
    soon as they are answered, on a simulated clock: ``workers`` pool
    threads (the program default) run dispatched batches at
    ``overhead_s`` plus ``tile_s`` per started tile, answers go out one
    every ``turnaround_s``, and the flusher fires exactly at
    ``flush_at``.  Starts cold, as a server does.  Returns the batch
    sizes in completion order."""
    events, sizes, queue = [], [], []
    sequence = iter(range(10 ** 9))
    free = [workers]

    def push(when, kind, payload=None):
        heapq.heappush(events, (when, next(sequence), kind, payload))

    for client in range(clients):
        push(client * turnaround_s, "arrive", client)
    while events and len(sizes) < rounds:
        now, _, kind, payload = heapq.heappop(events)
        if kind == "arrive":
            dispatch = window.arrive(payload, now)
            if dispatch is None and len(window) == 1:
                push(window.flush_at(), "flush")
        elif kind == "flush":
            dispatch = window.expire(now)
        else:
            free[0] += 1
            sizes.append(len(payload))
            for position, client in enumerate(payload):
                push(now + (position + 1) * turnaround_s, "arrive", client)
            dispatch = window.complete()
        if dispatch is not None:
            queue.append(dispatch[1])
        while free[0] and queue:
            free[0] -= 1
            batch = queue.pop(0)
            push(now + overhead_s + tile_s * math.ceil(len(batch) / tile),
                 "done", batch)
    return sizes


class TestClosedLoopKeepsItsBatches:
    """Sixteen callers in a closed loop: the guard against dispatching
    whenever idle, which sends the first request of every round alone
    and so pays three tiles per sixteen requests instead of two."""

    # per round the loop pauses for under a window (0.5 ms tiles), a
    # few windows (3.5 ms) or many (20 ms) while its batch is scored
    TILES = [0.5 * MS, 3.5 * MS, 20 * MS]

    @pytest.mark.parametrize("tile_s", TILES)
    def test_mean_batch_stays_near_full(self, tile_s):
        sizes = closed_loop_batch_sizes(
            BatchWindow(window_s=2 * MS, max_batch=16), tile_s=tile_s)
        settled = sizes[10:]
        assert sum(settled) / len(settled) >= 12

    @pytest.mark.parametrize("tile_s", TILES)
    def test_the_rejected_variant_would_fail_this(self, tile_s):
        sizes = closed_loop_batch_sizes(
            AlwaysSparse(window_s=2 * MS, max_batch=16), tile_s=tile_s)
        settled = sizes[10:]
        assert sum(settled) / len(settled) <= 8


class StubService:
    """Records every handle_batch call; optionally blocks until
    released (for shed/backpressure tests).  Refusals are the batcher's
    decision and the service's shape (``MatchService.reject``)."""

    def __init__(self, hold: bool = False) -> None:
        self.batches = []
        self.release = threading.Event()
        if not hold:
            self.release.set()

    def handle_batch(self, requests):
        assert self.release.wait(timeout=30)
        self.batches.append([r["id"] for r in requests])
        return [{"id": r["id"], "ok": True, "tier": "full",
                 "matches": [], "elapsed_ms": 0.0} for r in requests]

    def reject(self, request, code, message):
        return error_response(request["id"], code, message)

    def answer_hit(self, request):
        return None  # no answer table: every request takes the window


def collect():
    responses = []
    lock = threading.Lock()

    def deliver(response):
        with lock:
            responses.append(response)

    return responses, deliver


class Answers:
    """A ``deliver`` that a test can block on without polling."""

    def __init__(self) -> None:
        self.responses = []
        self._arrived = threading.Condition()

    def deliver(self, response) -> None:
        with self._arrived:
            self.responses.append(response)
            self._arrived.notify_all()

    def wait_for(self, count: int, timeout: float = 10.0) -> bool:
        with self._arrived:
            return self._arrived.wait_for(
                lambda: len(self.responses) >= count, timeout=timeout)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def counter(name: str) -> float:
    return registry().counter(f"netserve.batch.{name}").value


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestMicroBatcher:
    def test_an_admission_bound_or_pool_of_zero_is_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(StubService(), max_pending=0)
        with pytest.raises(ValueError):
            MicroBatcher(StubService(), workers=0)

    def test_concurrent_submissions_coalesce(self):
        stub = StubService(hold=True)  # a busy scorer: arrivals pile up
        batcher = MicroBatcher(stub, window_ms=50.0, max_batch=16,
                               clock=lambda: 0.0)
        responses, deliver = collect()
        batcher.submit({"id": "busy", "vertex": 0}, deliver)
        for i in range(5):
            batcher.submit({"id": i, "vertex": i}, deliver)
        stub.release.set()
        # the clock stands still, so only the drain can flush the five
        assert batcher.drain()
        assert len(responses) == 6
        # all five rode one fused call
        assert sorted(stub.batches, key=len) == [["busy"], [0, 1, 2, 3, 4]]

    def test_max_batch_flushes_without_waiting(self):
        stub = StubService(hold=True)
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=3)
        responses, deliver = collect()
        started = time.monotonic()
        batcher.submit({"id": "busy", "vertex": 0}, deliver)
        for i in range(3):
            batcher.submit({"id": i, "vertex": i}, deliver)
        stub.release.set()
        assert wait_until(lambda: len(responses) == 4)
        # a minute-long window did not make anyone wait a minute
        assert time.monotonic() - started < 10.0
        assert batcher.drain()
        assert sorted(stub.batches, key=len) == [["busy"], [0, 1, 2]]

    def test_tight_deadline_bypasses_the_window(self):
        stub = StubService()
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=16)
        responses, deliver = collect()
        batcher.submit({"id": "urgent", "vertex": 1, "budget_ms": 50.0},
                       deliver)
        # no companions, a minute of window left — answered anyway
        assert wait_until(lambda: len(responses) == 1)
        assert responses[0]["ok"] is True
        assert batcher.drain()
        assert stub.batches == [["urgent"]]

    def test_sheds_typed_overloaded_at_max_pending(self):
        stub = StubService(hold=True)  # nothing completes until released
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=100,
                               max_pending=3)
        responses, deliver = collect()
        for i in range(3):
            batcher.submit({"id": i, "vertex": i}, deliver)
        batcher.submit({"id": "extra", "vertex": 9}, deliver)
        shed = [r for r in responses if not r["ok"]]
        assert len(shed) == 1
        assert shed[0]["id"] == "extra"
        assert shed[0]["error"]["type"] == "overloaded"
        stub.release.set()
        assert batcher.drain()
        assert wait_until(lambda: len(responses) == 4)

    def test_refusal_is_delivered_with_the_lock_free(self):
        """A refusal's ``deliver`` may be a blocking pipe write (stdio):
        it must hold up neither a concurrent submit nor the scorer."""
        stub = StubService(hold=True)
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_pending=1)
        answers = Answers()
        batcher.submit({"id": "held", "vertex": 0}, answers.deliver)
        parked, unpark = threading.Event(), threading.Event()

        def stuck_pipe(response):
            parked.set()
            assert unpark.wait(timeout=30)
            answers.deliver(response)

        slow = threading.Thread(target=batcher.submit, args=(
            {"id": "slow", "vertex": 1}, stuck_pipe))
        slow.start()
        try:
            assert parked.wait(timeout=10)  # inside its own deliver
            fast = threading.Thread(target=batcher.submit, args=(
                {"id": "fast", "vertex": 2}, answers.deliver))
            fast.start()
            fast.join(timeout=10)
            assert not fast.is_alive()
            stub.release.set()  # completing takes the lock too
            assert answers.wait_for(2)
            assert {r["id"] for r in answers.responses} == {"held", "fast"}
        finally:
            unpark.set()
            slow.join(timeout=10)
        assert not slow.is_alive()
        assert batcher.drain()
        assert [r["error"]["type"] for r in answers.responses
                if not r["ok"]] == ["overloaded", "overloaded"]

    def test_drain_answers_everything_then_rejects(self):
        stub = StubService()
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=100)
        responses, deliver = collect()
        for i in range(4):
            batcher.submit({"id": i, "vertex": i}, deliver)
        # still parked in the minute-long window — drain must flush it
        assert batcher.drain()
        assert len(responses) == 4
        assert all(r["ok"] for r in responses)
        # and the door is closed, with a typed answer
        batcher.submit({"id": "late", "vertex": 0}, deliver)
        late = responses[-1]
        assert late["id"] == "late"
        assert late["error"]["type"] == "unavailable"

    def test_fused_call_failure_still_answers_everyone(self):
        class ExplodingService(StubService):
            def handle_batch(self, requests):
                raise RuntimeError("boom")

        batcher = MicroBatcher(ExplodingService(), window_ms=1.0,
                               max_batch=4)
        responses, deliver = collect()
        for i in range(3):
            batcher.submit({"id": i, "vertex": i}, deliver)
        assert wait_until(lambda: len(responses) == 3)
        assert all(r["ok"] is False for r in responses)
        assert batcher.drain()


class TestDispatchWhenIdle:
    """The same rules through the real threads, on an injected clock
    the tests move by hand: nothing here sleeps, and a window can only
    expire if a test says so."""

    def test_lone_request_is_scored_without_the_flusher(self):
        stub = StubService()
        clock = FakeClock()  # never advances: no window can expire
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=16,
                               clock=clock)
        answers = Answers()
        batcher.submit({"id": "lone", "vertex": 1}, answers.deliver)
        assert answers.wait_for(1)
        assert stub.batches == [["lone"]]
        assert counter("eager_total") == 1
        assert counter("flush_total") == 1
        assert counter("bypass_total") == 0
        hold = registry().histogram("netserve.batch.hold_ms").row()
        assert hold["count"] == 1 and hold["max"] == 0.0
        assert batcher.drain()

    def test_completing_worker_takes_what_piled_up_behind_it(self):
        stub = StubService(hold=True)
        clock = FakeClock()
        batcher = MicroBatcher(stub, window_ms=10.0, max_batch=16,
                               clock=clock)
        answers = Answers()
        batcher.submit({"id": "a", "vertex": 1}, answers.deliver)
        clock.now = 1.0  # a long gap: sparse traffic
        batcher.submit({"id": "b", "vertex": 2}, answers.deliver)
        batcher.submit({"id": "c", "vertex": 3}, answers.deliver)
        # the clock stays short of b's window expiry (1.010): whoever
        # scores b and c, it is not the flusher
        stub.release.set()
        assert answers.wait_for(3)
        assert stub.batches == [["a"], ["b", "c"]]
        assert counter("eager_total") == 2
        assert counter("flush_total") == 2
        hold = registry().histogram("netserve.batch.hold_ms").row()
        assert hold["count"] == 3
        assert batcher.drain()

    def test_inflight_restored_when_the_fused_call_raises(self):
        class ExplodingService(StubService):
            def handle_batch(self, requests):
                raise RuntimeError("boom")

        clock = FakeClock()
        batcher = MicroBatcher(ExplodingService(), window_ms=10.0,
                               max_batch=4, clock=clock)
        answers = Answers()
        batcher.submit({"id": 0, "vertex": 0}, answers.deliver)
        assert answers.wait_for(1)
        # a raise must not leave the batcher believing a call is still
        # in flight: the next lone request would park behind nothing
        # and, on this clock, never be flushed
        clock.now = 1.0
        batcher.submit({"id": 1, "vertex": 1}, answers.deliver)
        assert answers.wait_for(2)
        assert [r["error"]["type"] for r in answers.responses] == \
            ["serve_error", "serve_error"]
        assert counter("eager_total") == 2
        assert batcher.drain()
        assert batcher._window.inflight == 0

    def test_hurry_then_drain_answer_everything(self):
        stub = StubService(hold=True)
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=16,
                               clock=FakeClock())
        answers = Answers()
        batcher.submit({"id": "busy", "vertex": 0}, answers.deliver)
        for i in range(3):
            batcher.submit({"id": i, "vertex": i}, answers.deliver)
        batcher.hurry()  # the parked three go now, window or not
        batcher.submit({"id": "late", "vertex": 9}, answers.deliver)
        stub.release.set()
        assert answers.wait_for(5)
        assert all(r["ok"] for r in answers.responses)
        assert {tuple(batch) for batch in stub.batches} == \
            {("busy",), ("late",), (0, 1, 2)}
        # shutdown dispatches are not deadline bypasses
        assert counter("bypass_total") == 0
        assert counter("flush_total") == 3
        assert batcher.drain()
        assert batcher._window.inflight == 0

    def test_tight_budget_bypass_is_counted_as_such(self):
        stub = StubService(hold=True)
        batcher = MicroBatcher(stub, window_ms=60_000.0, max_batch=16,
                               clock=FakeClock())
        answers = Answers()
        batcher.submit({"id": "busy", "vertex": 0}, answers.deliver)
        batcher.submit({"id": "urgent", "vertex": 1, "budget_ms": 50.0},
                       answers.deliver)
        stub.release.set()
        assert answers.wait_for(2)
        assert counter("bypass_total") == 1
        assert counter("eager_total") == 1
        assert batcher.drain()

    def test_concurrent_submitters_lose_nothing(self):
        """More submitting threads than cores, a switch interval short
        enough to interleave them inside the batcher's critical
        sections: every request is answered exactly once and the
        in-flight and pending counts return to zero."""
        stub = StubService()
        batcher = MicroBatcher(stub, window_ms=0.2, max_batch=8,
                               max_pending=10_000, workers=4)
        answers = Answers()
        threads, per_thread = 8, 150

        def submitter(index: int) -> None:
            for i in range(per_thread):
                batcher.submit({"id": (index, i), "vertex": i},
                               answers.deliver)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=submitter, args=(t,))
                    for t in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in pool)
            assert answers.wait_for(threads * per_thread, timeout=30)
            assert batcher.drain()
        finally:
            sys.setswitchinterval(previous)
        ids = [r["id"] for r in answers.responses]
        assert len(ids) == len(set(map(tuple, ids))) == threads * per_thread
        assert sum(len(batch) for batch in stub.batches) == len(ids)
        assert batcher._window.inflight == 0 and batcher._pending == 0
        assert counter("flush_total") == len(stub.batches)
