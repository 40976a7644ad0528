"""Cross-process trace stitching under health and faults.

The router joins the caller's trace, fans a child context out to every
shard, and grafts the worker-side span trees (shipped back in the
compact ``trace`` response field) into one causal timeline.  These
tests drive that over real sockets and assert the *shape* of the
stitched tree: shard spans under the root, worker subtrees (tagged with
their process) directly under their shard's span — and, under faults,
typed ``trace_gap`` events instead of crashes, with forced retention
keeping the failed request's story even at sample rate 0.
"""

from __future__ import annotations

from repro.obs import registry, trace_recorder

from .test_router import PAST_TABLE, Client, trace_ctx


def stitch_ctx(trace_id: str) -> dict:
    """A caller context that also asks for the stitched tree back."""
    return dict(trace_ctx(trace_id), return_spans=True)


def spans_named(row: dict, prefix: str) -> list:
    """Every span row in ``row``'s tree whose name starts ``prefix``."""
    found = []
    if row.get("name", "").startswith(prefix):
        found.append(row)
    for child in row.get("children", ()):
        found.extend(spans_named(child, prefix))
    return found


def events_of(row: dict, kind: str) -> list:
    """Every ``kind`` event anywhere in ``row``'s tree."""
    found = [e for e in row.get("events", ()) if e.get("kind") == kind]
    for child in row.get("children", ()):
        found.extend(events_of(child, kind))
    return found


class TestStitching:
    def test_three_shard_fan_out_stitches_into_one_timeline(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        request = {"id": "st1", "top_k": PAST_TABLE,
                   "vertex": int(fitted_hard.vertex_ids[0]),
                   "trace": stitch_ctx("stitch-1")}
        response = client.ask(request)
        client.close()
        assert response["ok"] is True
        assert response["trace_id"] == "stitch-1"
        wire = response["trace"]
        root = wire["spans"]
        assert root["name"] == "route.request"
        # one shard span per slot, one call each: no attempt spans
        shard_spans = spans_named(root, "shard/")
        assert sorted(s["name"] for s in shard_spans) == \
            ["shard/0", "shard/1", "shard/2"]
        assert not spans_named(root, "attempt/")
        for shard_span in shard_spans:
            # the worker's own tree landed directly under its shard's
            # span, re-based and tagged with the process it came from
            grafted = shard_span.get("children", ())
            assert [child["name"] for child in grafted] == \
                ["serve.request"], shard_span["name"]
            assert grafted[0]["process"] == shard_span["name"].replace(
                "/", "")
            assert grafted[0]["start_ms"] >= 0.0

    def test_stitched_trace_lands_in_the_recorder(
            self, shard_cluster, run_router, fitted_hard):
        """``repro obs report`` reads the recorder: the row must be
        there, under the caller's id, spanning >= 2 processes."""
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        client.ask({"id": "st2", "top_k": PAST_TABLE,
                    "vertex": int(fitted_hard.vertex_ids[1]),
                    "trace": stitch_ctx("stitch-2")})
        client.close()
        rows = [row for row in trace_recorder().snapshot()
                if row.get("trace_id") == "stitch-2"
                and row.get("name") == "route.request"]
        assert rows, "router never recorded the joined trace"
        processes = {span.get("process") for span
                     in spans_named(rows[-1]["spans"], "serve.request")}
        assert len(processes & {"shard0", "shard1", "shard2"}) >= 2


class TestFaultTraces:
    def test_dead_shard_leaves_typed_gap_not_crash(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints, shard_timeout_ms=2000.0)
        endpoints.addresses[2] = None  # SIGKILL, as the router sees it
        client = Client(address)
        response = client.ask({"id": "g1", "top_k": PAST_TABLE,
                               "vertex": int(fitted_hard.vertex_ids[0]),
                               "trace": stitch_ctx("gap-1")})
        client.close()
        assert response["ok"] is False
        assert response["error"]["type"] == "unavailable"
        wire = response["trace"]
        assert wire["flags"] == ["error"]
        dead_span = spans_named(wire["spans"], "shard/2")[0]
        gaps = events_of(dead_span, "trace_gap")
        assert gaps, "dead shard left no trace_gap event"
        assert gaps[0]["attrs"]["reason"] == "failed"
        # the two live shards still stitched their subtrees in
        assert len(spans_named(wire["spans"], "serve.request")) == 2

    def test_forced_retention_keeps_unavailable_at_rate_zero(
            self, shard_cluster, run_router, fitted_hard):
        """Sample rate 0: healthy traces are dropped, but an
        ``unavailable`` answer is flagged and force-retained — the
        interesting tail is never sampled away."""
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints, shard_timeout_ms=2000.0,
                                trace_sample_rate=0.0)
        client = Client(address)
        vertex = int(fitted_hard.vertex_ids[0])
        healthy = client.ask({"id": "f0", "top_k": PAST_TABLE,
                              "vertex": vertex,
                              "trace": stitch_ctx("forced-healthy")})
        assert healthy["ok"] is True
        assert healthy["trace_id"] == "forced-healthy"
        assert "trace" not in healthy, \
            "unflagged trace returned spans despite rate 0"
        endpoints.addresses[2] = None
        failed = client.ask({"id": "f1", "top_k": PAST_TABLE,
                             "vertex": vertex,
                             "trace": stitch_ctx("forced-unavailable")})
        client.close()
        assert failed["error"]["type"] == "unavailable"
        assert "trace" in failed, "flagged trace was sampled away"
        assert "error" in failed["trace"]["flags"]
        recorded = {row.get("trace_id")
                    for row in trace_recorder().snapshot()
                    if row.get("name") == "route.request"}
        assert "forced-unavailable" in recorded
        assert "forced-healthy" not in recorded


class TestFleetScrape:
    def test_stats_op_aggregates_the_fleet_live(
            self, shard_cluster, run_router, fitted_hard):
        """One ``stats`` exchange against the router answers with the
        whole fleet: per-shard sections, labeled families, and merged
        bucket histograms — without stopping anything.  (The workers
        share this process's registry, so sums are not asserted —
        structure is; the CI fleet test covers real processes.)"""
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        # traffic first, so the scrape has rows to show
        for i in range(4):
            client.ask({"id": f"w{i}", "top_k": PAST_TABLE,
                        "vertex": int(fitted_hard.vertex_ids[i])})
        response = client.ask({"op": "stats", "id": "s1"})
        assert response["ok"] is True and response["id"] == "s1"
        stats = response["stats"]
        assert stats["shards"] == {"total": 3, "answered": 3}
        assert sorted(stats["per_shard"]) == ["0", "1", "2"]
        for slot, section in stats["per_shard"].items():
            assert isinstance(section["metrics"], list), slot
            assert section["captured_unix"] > 0, slot
        labeled = {row["labels"]["shard"] for row in stats["metrics"]
                   if isinstance(row.get("labels"), dict)
                   and "shard" in row["labels"]}
        assert labeled == {"0", "1", "2"}
        latency = [row for row in stats["metrics"]
                   if row["name"] == "serve.request_ms"
                   and "labels" not in row]
        assert latency and "buckets" in latency[0], \
            "per-shard latency histograms were not merged bucketwise"
        assert stats["captured_unix"] > 0
        # a second exchange on the same connection still serves matches:
        # the scrape never wedged the router
        after = client.ask({"id": "after", "top_k": 1,
                            "vertex": int(fitted_hard.vertex_ids[0])})
        client.close()
        assert after["ok"] is True

    def test_scrape_survives_a_dead_shard(self, shard_cluster,
                                          run_router):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints, stats_timeout_ms=1500.0)
        endpoints.addresses[1] = None
        client = Client(address)
        response = client.ask({"op": "stats", "id": "s2"})
        client.close()
        assert response["ok"] is True
        stats = response["stats"]
        assert stats["shards"] == {"total": 3, "answered": 2}
        assert stats["per_shard"]["1"] is None
        assert registry().counter("shard.1.scrape_failed_total").value >= 1
