"""The in-process layer probe of the serving workloads (trace runs).

Replays the head of the ``lo`` schedule through the same public calls
a server process makes for one request — decode the line, answer it
through ``MatchService.handle_batch``, encode the response — under the
benchmark's spans, plus the direct matcher / top-k / merge calls on the
same vertex as sibling ``components``.  The same replay with spans off
prices the tracing itself.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from driver import Query, encode_requests
from harness import Outcome, Run, median_ms, timed
from repro import nn
from repro.index import deterministic_topk
from repro.netserve import decode_line, encode_response
from repro.obs import set_tracing_enabled
from repro.serve import MatchService, ServeConfig
from repro.shard import merge_matches
from spans import SpanRecorder, self_times

__all__ = ["REPLAY_REQUESTS", "probe"]

REPLAY_REQUESTS = 1000
BATCH_PROBES = 100


def probe(run: Run, out: Outcome, shards: int, matcher,
          oracle: MatchService, queries: List[Query],
          lo_p50_ms: float) -> None:
    """Fill the per-layer metrics an in-process replay can give.

    ``oracle`` is the unsharded service; the replayed requests go
    through the service a server process of this workload runs — the
    same one unsharded, a shard-0 service over the same matcher when
    the workload is routed.  ``lo_p50_ms`` is the measured low-rate
    median straight at a server, which the in-process time is
    subtracted from to estimate the batching-window wait.
    """
    queries = queries[:REPLAY_REQUESTS]
    lines = encode_requests(queries, 0)
    service = oracle if not shards else MatchService(
        matcher, config=ServeConfig(shard_slot=0, shard_count=shards)).warmup()
    other = None if not shards else MatchService(
        matcher, config=ServeConfig(shard_slot=1, shard_count=shards)).warmup()

    def replay(rec: SpanRecorder) -> float:
        started = time.perf_counter()
        for request_id, (line, (vertex, top_k)) in enumerate(
                zip(lines, queries)):
            with rec.span("request", request_id):
                with rec.span("netserve.protocol.decode"):
                    request = decode_line(line)
                with rec.span("serve.service.handle_batch"):
                    response = service.handle_batch([request])[0]
                with rec.span("netserve.protocol.encode"):
                    encode_response(response)
            with rec.span("components", request_id):
                with rec.span("core.matcher.score"):
                    row = matcher.score([vertex])[0]
                with rec.span("index.topk.row"):
                    deterministic_topk(row, top_k)
                if other is not None:
                    with rec.span("serve.service.handle_batch.shard1"):
                        rest = other.handle_batch([request])[0]
                    with rec.span("shard.partition.merge"):
                        merge_matches([response["matches"],
                                       rest["matches"]], top_k)
        return time.perf_counter() - started

    replay(SpanRecorder(enabled=False))  # warm every cache first
    untraced_s = replay(SpanRecorder(enabled=False))
    traced_s = replay(run.recorder)
    layers = out.per_layer
    layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) \
        / untraced_s

    by_name: Dict[str, List[float]] = {}
    for row in run.recorder.spans:
        by_name.setdefault(row["name"], []).append(row["end"] - row["start"])
    span_us = lambda name: 1e6 * statistics.median(by_name[name])  # noqa: E731
    layers.update({
        "netserve.protocol.decode_us": span_us("netserve.protocol.decode"),
        "netserve.protocol.encode_us": span_us("netserve.protocol.encode"),
        "serve.service.handle_batch1_us":
            span_us("serve.service.handle_batch"),
        "core.matcher.score_row_us": span_us("core.matcher.score"),
        "index.topk.row_us": span_us("index.topk.row"),
    })
    if other is not None:
        layers["shard.partition.merge_us"] = span_us("shard.partition.merge")
    layers["serve.service.self_us"] = layers["serve.service.handle_batch1_us"] \
        - layers["core.matcher.score_row_us"] - layers["index.topk.row_us"]
    in_process_ms = span_us("request") / 1e3
    layers["netserve.batcher.window_wait_ms_est"] = lo_p50_ms - in_process_ms

    # how far the per-request layer self times are from adding up
    own = self_times(run.recorder.spans)
    roots = [row for row in run.recorder.spans if row["name"] == "request"]
    children: Dict[int, float] = {}
    for row in run.recorder.spans:
        if row["parent"] is not None:
            children[row["parent"]] = children.get(row["parent"], 0.0) \
                + own[row["id"]]
    residual = [abs((row["end"] - row["start"]) - own[row["id"]]
                    - children.get(row["id"], 0.0))
                / (row["end"] - row["start"]) for row in roots]
    layers["trace.self_time_residual_pct"] = 100.0 * max(residual)

    requests = [decode_line(line) for line in lines]
    vertices = [vertex for vertex, _ in queries]

    def per_call_us(call: Callable[[int], object], count: int) -> float:
        return 1e3 * median_ms([timed(lambda: call(i))[1]
                                for i in range(count)])

    def encode(i: int) -> None:
        with nn.no_grad():
            matcher.encode_vertices([vertices[i]])

    def batch_of(size: int) -> Callable[[int], object]:
        return lambda i: service.handle_batch(
            [requests[(i * size + j) % len(requests)] for j in range(size)])

    count = min(len(requests), 300)
    layers.update({
        "serve.service.handle_us":
            per_call_us(lambda i: service.handle(requests[i]), count),
        "serve.service.handle_batch8_us_per_req":
            per_call_us(batch_of(8), BATCH_PROBES) / 8,
        "serve.service.handle_batch16_us_per_req":
            per_call_us(batch_of(16), BATCH_PROBES) / 16,
        "core.matcher.text_query_us": per_call_us(encode, count),
        "core.matcher.score_topk_us": per_call_us(
            lambda i: matcher.score_topk([vertices[i]], queries[i][1]), count),
    })

    # the program's own request tracing, on (its default) against off
    def handle_all() -> float:
        return timed(lambda: [service.handle(r) for r in requests[:count]])[1]

    on, off = [], []
    try:
        for _ in range(3):
            set_tracing_enabled(True)
            on.append(handle_all())
            set_tracing_enabled(False)
            off.append(handle_all())
    finally:
        set_tracing_enabled(True)
    layers["obs.telemetry_cost_pct"] = 100.0 * (
        statistics.median(on) - statistics.median(off)) \
        / statistics.median(off)
