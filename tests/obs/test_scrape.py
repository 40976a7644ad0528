"""Fleet aggregation math and the live-scrape client.

Fabricated per-shard snapshots exercise the aggregation semantics
exactly (counters summed, identical bucket layouts merged bucketwise,
everything else labeled per shard); a threaded stub socket server
exercises the one-shot op client (:func:`request_op` with ``"stats"``)
end to end, including its typed failure modes.  The window math (:func:`delta_summary` /
:func:`combine_summaries`) is checked against hand-computed deltas —
it is what ``repro obs slo --connect`` judges a live fleet with.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.netserve.protocol import request_op
from repro.obs import MetricsRegistry
from repro.obs.hist import BucketHistogram
from repro.obs.scrape import (aggregate_fleet, combine_summaries,
                              delta_summary)


def bucket_row(name: str, values, bounds=(1.0, 10.0, 100.0)) -> dict:
    hist = BucketHistogram(bounds)
    for value in values:
        hist.observe(value)
    doc = hist.to_dict()
    return {"type": "histogram", "name": name, "count": doc["count"],
            "sum": doc["sum"], "min": doc["min"], "max": doc["max"],
            "p50": hist.quantile(50.0), "p95": hist.quantile(95.0),
            "buckets": {"bounds": doc["bounds"],
                        "counts": doc["counts"]}}


def shard_stats(counter_value: int, latencies, *,
                bounds=(1.0, 10.0, 100.0), captured=100.0) -> dict:
    return {
        "metrics": [
            {"type": "counter", "name": "serve.requests_total",
             "value": counter_value},
            {"type": "gauge", "name": "serve.queue_depth", "value": 3.0},
            bucket_row("serve.request_ms", latencies, bounds),
        ],
        "spans": [{"type": "span", "name": "serve/score", "count": 2,
                   "total_seconds": 0.01, "p50_seconds": 0.005,
                   "p95_seconds": 0.008}],
        "captured_unix": captured,
    }


class TestAggregateFleet:
    def test_counters_sum_and_gauges_label(self):
        fleet = aggregate_fleet({"0": shard_stats(10, [5.0]),
                                 "1": shard_stats(32, [50.0])})
        by_name = {}
        for row in fleet["metrics"]:
            by_name.setdefault(row["name"], []).append(row)
        totals = by_name["serve.requests_total"]
        assert len(totals) == 1 and totals[0]["value"] == 42
        assert "labels" not in totals[0]
        gauges = by_name["serve.queue_depth"]
        assert sorted(g["labels"]["shard"] for g in gauges) == ["0", "1"]
        spans = fleet["spans"]
        assert {s["labels"]["shard"] for s in spans} == {"0", "1"}
        assert fleet["shards"] == {"total": 2, "answered": 2}
        assert fleet["captured_unix"] == 100.0

    def test_identical_bucket_layouts_merge_exactly(self):
        fleet = aggregate_fleet({"0": shard_stats(1, [0.5, 5.0]),
                                 "1": shard_stats(1, [50.0])})
        merged = [row for row in fleet["metrics"]
                  if row["name"] == "serve.request_ms"]
        assert len(merged) == 1 and "labels" not in merged[0]
        assert merged[0]["count"] == 3
        assert merged[0]["buckets"]["counts"] == [1, 1, 1, 0]

    def test_registry_histograms_merge_across_shards(self):
        # every registry histogram shares the one layout, so two real
        # workers' batch-size rows fold into one unlabeled row
        snapshots = {}
        for slot, sizes in (("0", (1, 1, 4)), ("1", (2, 16))):
            reg = MetricsRegistry()
            for size in sizes:
                reg.histogram("netserve.batch.size").observe(size)
            snapshots[slot] = {"metrics": reg.snapshot(), "spans": []}
        fleet = aggregate_fleet(snapshots)
        rows = [row for row in fleet["metrics"]
                if row["name"] == "netserve.batch.size"]
        assert len(rows) == 1 and "labels" not in rows[0]
        [merged] = rows
        shard_rows = [snapshots[slot]["metrics"][0] for slot in "01"]
        assert merged["count"] == 5
        assert merged["sum"] == 24.0
        assert merged["buckets"]["counts"] == [
            a + b for a, b in zip(shard_rows[0]["buckets"]["counts"],
                                  shard_rows[1]["buckets"]["counts"])]
        assert merged["min"] == 1.0 and merged["max"] == 16.0

    def test_disagreeing_layouts_fall_back_to_labels(self):
        fleet = aggregate_fleet({
            "0": shard_stats(1, [5.0], bounds=(1.0, 10.0, 100.0)),
            "1": shard_stats(1, [5.0], bounds=(2.0, 20.0))})
        rows = [row for row in fleet["metrics"]
                if row["name"] == "serve.request_ms"]
        assert sorted(r["labels"]["shard"] for r in rows) == ["0", "1"], \
            "disagreeing bucket layouts must not be merged into fiction"

    def test_unanswered_shard_costs_coverage_not_the_scrape(self):
        fleet = aggregate_fleet({"0": shard_stats(7, [5.0]), "1": None})
        assert fleet["shards"] == {"total": 2, "answered": 1}
        assert fleet["per_shard"]["1"] is None
        totals = [row for row in fleet["metrics"]
                  if row["name"] == "serve.requests_total"]
        assert totals[0]["value"] == 7

    def test_own_rows_append_without_double_counting(self):
        own = [{"type": "counter", "name": "shard.router.requests_total",
                "value": 5},
               {"type": "counter", "name": "serve.requests_total",
                "value": 999}]  # shards already reported this family
        fleet = aggregate_fleet({"0": shard_stats(10, [5.0])},
                                own_rows=own)
        by_name = {}
        for row in fleet["metrics"]:
            by_name.setdefault(row["name"], []).append(row)
        assert by_name["shard.router.requests_total"][0]["value"] == 5
        assert len(by_name["serve.requests_total"]) == 1
        assert by_name["serve.requests_total"][0]["value"] == 10


def summary_rows(offered, ok, shed, errors, latencies) -> list:
    """A service's counters (it never degrades: every ``ok`` is full)."""
    return [
        {"type": "counter", "name": "serve.requests_total",
         "value": offered},
        {"type": "counter", "name": "serve.ok_total", "value": ok},
        {"type": "counter", "name": "serve.error.overloaded",
         "value": shed},
        {"type": "counter", "name": "serve.error_total", "value": errors},
        bucket_row("serve.request_ms", latencies),
    ]


def router_rows(offered, ok, shed, errors, latencies) -> list:
    """A router's front-door counters; every ``ok`` is a whole answer."""
    return [
        {"type": "counter", "name": "shard.router.requests_total",
         "value": offered},
        {"type": "counter", "name": "shard.router.ok_total", "value": ok},
        {"type": "counter", "name": "shard.router.error.overloaded",
         "value": shed},
        {"type": "counter", "name": "shard.router.error_total",
         "value": errors},
        bucket_row("shard.router.request_ms", latencies),
    ]


class TestDeltaSummary:
    def test_window_between_two_scrapes(self):
        before = summary_rows(100, 90, 3, 2, [5.0] * 10)
        after = summary_rows(150, 135, 6, 4, [5.0] * 10 + [50.0] * 10)
        summary = delta_summary(before, after)
        assert summary["offered"] == 50
        assert summary["ok"] == 45 and summary["degraded"] == 0
        assert summary["answered"] == 45
        assert summary["shed"] == 3 and summary["errors"] == 2
        assert summary["availability"] == pytest.approx(0.9)
        assert summary["degraded_fraction"] == 0.0
        assert summary["shed_fraction"] == pytest.approx(0.06)
        # the window's latencies are the 10 new 50ms observations: the
        # cumulative 5ms ones subtract away
        assert summary["p50_ms"] > 10.0
        assert summary["latency_buckets"]["count"] == 10

    def test_router_scrape_is_judged_at_the_front_door(self):
        """The router's own counters, not the workers': answered is
        its ``ok_total`` delta, all of it whole."""
        before = router_rows(100, 90, 3, 7, [5.0] * 10)
        after = router_rows(150, 135, 6, 12, [5.0] * 10 + [50.0] * 10)
        summary = delta_summary(before, after, router=True)
        assert summary["offered"] == 50
        assert summary["answered"] == 45
        assert summary["ok"] == 45 and summary["degraded"] == 0
        assert summary["shed"] == 3 and summary["errors"] == 5
        assert summary["availability"] == pytest.approx(0.9)
        assert summary["degraded_fraction"] == 0.0
        assert summary["latency_buckets"]["count"] == 10
        assert summary["p50_ms"] > 10.0

    def test_a_routed_request_is_offered_once_not_once_per_shard(self):
        """Two workers each count every scattered request, and neither
        sees a hit: the fleet's summed ``serve.requests_total`` says 2x
        the scattered traffic.  The router's own counter says what was
        offered at the door."""
        def fleet(routed, scattered):
            return aggregate_fleet(
                {slot: {"metrics": summary_rows(scattered, scattered, 0,
                                                0, [5.0] * scattered)}
                 for slot in ("0", "1")},
                own_rows=router_rows(routed, routed, 0, 0,
                                     [1.0] * routed))["metrics"]

        before, after = fleet(10, 4), fleet(40, 10)  # 30 routed, 6 past
        assert delta_summary(before, after)["offered"] == 12
        summary = delta_summary(before, after, router=True)
        assert summary["offered"] == 30 and summary["answered"] == 30
        assert summary["latency_buckets"]["count"] == 30

    def test_empty_window_judges_nothing(self):
        rows = summary_rows(100, 90, 3, 2, [5.0])
        summary = delta_summary(rows, rows)
        assert summary["offered"] == 0
        assert summary["availability"] is None
        assert summary["p95_ms"] is None

    def test_missing_latency_metric_yields_none_not_stale(self):
        before = summary_rows(10, 10, 0, 0, [5.0])
        after = summary_rows(20, 20, 0, 0, [5.0, 5.0])
        stripped = [row for row in after
                    if row["name"] != "serve.request_ms"]
        summary = delta_summary(before, stripped)
        assert summary["p50_ms"] is None
        assert summary["latency_buckets"] is None

    def test_labeled_rows_are_ignored(self):
        """Per-shard facets must not shadow the aggregated families."""
        before = summary_rows(10, 10, 0, 0, [5.0])
        after = summary_rows(30, 30, 0, 0, [5.0, 5.0]) + [
            {"type": "counter", "name": "serve.requests_total",
             "value": 9999, "labels": {"shard": "0"}}]
        assert delta_summary(before, after)["offered"] == 20


class TestCombineSummaries:
    def test_sliding_window_fold(self):
        before = summary_rows(0, 0, 0, 0, [])
        mid = summary_rows(50, 45, 5, 0, [5.0] * 45)
        after = summary_rows(100, 95, 5, 0,
                             [5.0] * 45 + [50.0] * 50)
        combined = combine_summaries([delta_summary(before, mid),
                                      delta_summary(mid, after)])
        assert combined["offered"] == 100
        assert combined["answered"] == 95
        assert combined["availability"] == pytest.approx(0.95)
        assert combined["latency_buckets"]["count"] == 95
        assert combined["p95_ms"] > 10.0

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            combine_summaries([])


class StubStatsServer:
    """A one-op JSONL server: answers ``stats`` with a canned payload
    (or a canned failure) and hangs up."""

    def __init__(self, response_line: bytes) -> None:
        self.server = socket.create_server(("127.0.0.1", 0))
        self.address = self.server.getsockname()[:2]
        self.response_line = response_line
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self.server.accept()
        except OSError:
            return
        with conn:
            conn.makefile("rb").readline()
            if self.response_line:
                conn.sendall(self.response_line)
        self.server.close()

    def close(self) -> None:
        try:
            self.server.close()
        except OSError:
            pass
        self.thread.join(timeout=5.0)


class TestFetchStats:
    def test_round_trip(self):
        payload = {"id": "scrape", "ok": True,
                   "stats": shard_stats(3, [5.0])}
        server = StubStatsServer(
            (json.dumps(payload) + "\n").encode("utf-8"))
        try:
            stats = request_op(server.address, "stats", timeout=5.0)
        finally:
            server.close()
        assert stats["metrics"][0]["value"] == 3
        assert stats["captured_unix"] == 100.0

    def test_hangup_is_a_connection_error(self):
        server = StubStatsServer(b"")
        with pytest.raises(ConnectionError):
            try:
                request_op(server.address, "stats", timeout=5.0)
            finally:
                server.close()

    def test_typed_error_response_raises_runtime(self):
        body = {"id": "scrape", "ok": False,
                "error": {"type": "bad_request"}}
        server = StubStatsServer(
            (json.dumps(body) + "\n").encode("utf-8"))
        with pytest.raises(RuntimeError):
            try:
                request_op(server.address, "stats", timeout=5.0)
            finally:
                server.close()
