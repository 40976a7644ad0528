"""Overload burst: shedding with typed rejections and live batcher metrics.

A scoring thread is pinned on an Event inside the encoder, the batcher
is filled behind it, and the burst's metrics snapshot is exported as
the JSONL artifact CI uploads (``REPRO_SERVE_METRICS_OUT`` overrides
the path).  Requests ask for ``PAST_TABLE`` matches: a request the
answer table covers is a slice and never reaches the encoder.  ``max_pending`` counts queued *and* in-flight requests, so
a bound of N admits N in all — the pinned one included.
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs import export_jsonl, read_jsonl, registry
from repro.serve import MicroBatcher

from .test_service import PAST_TABLE, encoder_fault


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class PinnedEncoder:
    """An encoder fault that parks every scoring call until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, original):
        def wrapper(vertex_ids):
            self.entered.set()
            self.release.wait(timeout=30)
            return original(vertex_ids)
        return wrapper


class TestOverloadBurst:
    def test_burst_sheds_typed_and_metrics_capture_it(self, make_service,
                                                      fitted_soft, tmp_path):
        batcher = MicroBatcher(make_service(), max_pending=3)
        responses = []
        pin = PinnedEncoder()
        request = {"vertex": fitted_soft.vertex_ids[0], "top_k": PAST_TABLE}
        with encoder_fault(fitted_soft, pin):
            try:
                batcher.submit(dict(request, id="a"), responses.append)
                assert pin.entered.wait(timeout=10)  # pinned inside encode
                for request_id in ("b", "c"):
                    batcher.submit(dict(request, id=request_id),
                                   responses.append)
                assert responses == []  # three admitted, none answerable
                # batcher full behind the pinned scorer: the burst
                # overflow is shed immediately with a typed error, by
                # the submitting thread, not queued
                for request_id in ("d", "e"):
                    batcher.submit(dict(request, id=request_id),
                                   responses.append)
                    rejection = responses[-1]
                    assert rejection["ok"] is False
                    assert rejection["error"]["type"] == "overloaded"
                    assert rejection["id"] == request_id
                    assert rejection["trace_id"]
                assert len(responses) == 2

                reg = registry()
                assert reg.gauge("netserve.pending").value == 3
                assert reg.counter("netserve.shed_total").value == 2

                # snapshot the burst while the batcher is still backed
                # up — this is the artifact the CI serve job uploads
                out = os.environ.get("REPRO_SERVE_METRICS_OUT") \
                    or str(tmp_path / "serve-overload-metrics.jsonl")
                export_jsonl(out, meta={"scenario": "overload-burst",
                                        "max_pending": 3})
                rows = {row.get("name"): row for row in read_jsonl(out)}
                assert rows["netserve.pending"]["value"] == 3
                assert rows["netserve.shed_total"]["value"] == 2
            finally:
                pin.release.set()

        # the admitted requests all complete once the encoder unblocks
        assert wait_until(lambda: len(responses) == 5)
        assert batcher.drain()
        assert sorted(r["id"] for r in responses if r["ok"]) \
            == ["a", "b", "c"]
        assert registry().gauge("netserve.pending").value == 0

    def test_shed_responses_count_as_requests(self, make_service,
                                              fitted_soft):
        batcher = MicroBatcher(make_service(), max_pending=2)
        responses = []
        pin = PinnedEncoder()
        request = {"vertex": fitted_soft.vertex_ids[0], "top_k": PAST_TABLE}
        with encoder_fault(fitted_soft, pin):
            try:
                batcher.submit(dict(request, id=1), responses.append)
                assert pin.entered.wait(timeout=10)
                batcher.submit(dict(request, id=2), responses.append)
                batcher.submit(dict(request, id=3), responses.append)
                [rejection] = responses
                assert rejection["error"]["type"] == "overloaded"
                assert "(2/2)" in rejection["error"]["message"]
            finally:
                pin.release.set()
        assert batcher.drain()
        assert len(responses) == 3
        reg = registry()
        # every submission is a request: 2 served + 1 shed
        assert reg.counter("serve.requests_total").value == 3
        assert reg.counter("serve.error_total").value == 1
        assert reg.counter("serve.error.overloaded").value == 1
