"""Drain vs submit: the race that must end in typed rejections.

A reader thread pumping requests into a batcher that is concurrently
draining must never crash and never hang — every submit is answered
exactly once through its ``deliver``, with a real response if it was
admitted or a structured ``unavailable`` if it was not.  These tests
drive the race deliberately (barrier-started submitter threads against
a drain) and the trivial ordering (submit strictly after the drain),
over a real service, so the refusal is the traced one every door emits.
"""

from __future__ import annotations

import json
import threading

from repro.obs import registry
from repro.serve import MicroBatcher


def drained_batcher(service) -> MicroBatcher:
    batcher = MicroBatcher(service)
    assert batcher.drain()
    return batcher


class TestSubmitAfterShutdown:
    def test_submit_after_shutdown_is_typed_rejection(self, make_service,
                                                      fitted_soft):
        batcher = drained_batcher(make_service())
        responses = []
        batcher.submit({"id": "late", "vertex": fitted_soft.vertex_ids[0]},
                       responses.append)
        [rejection] = responses
        assert rejection["ok"] is False
        assert rejection["error"]["type"] == "unavailable"
        assert rejection["id"] == "late"
        # a real client can serialise it like any other response
        json.dumps(rejection)

    def test_rejection_carries_trace(self, make_service, fitted_soft):
        batcher = drained_batcher(make_service())
        responses = []
        batcher.submit({"id": 1, "vertex": fitted_soft.vertex_ids[0]},
                       responses.append)
        assert responses[0].get("trace_id")


class TestConcurrentShutdown:
    def test_submitters_racing_shutdown_never_crash(self, make_service,
                                                    fitted_soft):
        """N submitter threads vs one drain: every submit is delivered
        exactly one answer (a real one or a typed rejection); nothing
        raises, nothing hangs, and everything admitted is answered."""
        batcher = MicroBatcher(make_service(), max_pending=64)
        answered = []
        answered_lock = threading.Lock()

        def deliver(response):
            with answered_lock:
                answered.append(response)

        vertex = fitted_soft.vertex_ids[0]
        n_threads, per_thread = 4, 25
        barrier = threading.Barrier(n_threads + 1)
        failures = []

        def submitter(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                try:
                    batcher.submit({"id": f"w{worker}-{i}", "vertex": vertex},
                                   deliver)
                except BaseException as exc:  # the bug this test exists for
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=submitter, args=(worker,))
                   for worker in range(n_threads)]
        for thread in threads:
            thread.start()
        barrier.wait()  # all submitters in flight...
        assert batcher.drain()  # ...and the rug comes out
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # conservation: every submit is accounted exactly once
        ids = [response["id"] for response in answered]
        assert len(ids) == len(set(ids)) == n_threads * per_thread
        for response in answered:
            assert response["ok"] or response["error"]["type"] in (
                "unavailable", "overloaded")

    def test_unavailable_counted_as_requests(self, make_service,
                                             fitted_soft):
        batcher = drained_batcher(make_service())
        reg = registry()
        before = reg.counter("serve.requests_total").value
        batcher.submit({"id": 1, "vertex": fitted_soft.vertex_ids[0]},
                       lambda response: None)
        assert reg.counter("serve.requests_total").value == before + 1
        assert reg.counter("serve.error.unavailable").value == 1
        assert reg.counter("netserve.shed_total").value == 1
