"""The ``stats`` control op: live scrape without stopping the process.

Over TCP (the NetServer front end) and over stdio (``serve_loop``),
``{"op": "stats"}`` must answer a point-in-time snapshot of the
process's registry, bucket histograms and span reservoirs — and two
scrapes bracketing real traffic must show the counters *moving*, which
is the whole point: observe a live worker mid-run, restart nothing.
"""

from __future__ import annotations

import io
import json
import time

from repro.netserve.protocol import request_op
from repro.obs.scrape import delta_summary
from repro.serve.loop import serve_loop

from .test_server import Client


def rows_by_name(stats: dict) -> dict:
    return {row["name"]: row for row in stats["metrics"]}


class TestStatsOverTcp:
    def test_snapshot_shape(self, run_server):
        _, address = run_server()
        client = Client(address)
        response = client.ask({"op": "stats", "id": "s1"})
        client.close()
        assert response["ok"] is True and response["id"] == "s1"
        stats = response["stats"]
        assert isinstance(stats["metrics"], list)
        assert isinstance(stats["spans"], list)
        assert stats["captured_unix"] > 0
        assert "shard" not in stats, "unsharded worker claimed a slot"

    def test_sharded_worker_advertises_its_slot(self, run_server,
                                                make_service):
        service = make_service(shard_slot=1, shard_count=3)
        _, address = run_server(service)
        client = Client(address)
        stats = client.ask({"op": "stats", "id": "s1"})["stats"]
        client.close()
        assert stats["shard"] == {"slot": 1, "count": 3}

    def test_counters_move_between_scrapes_without_restart(
            self, run_server, fitted_hard):
        _, address = run_server()
        client = Client(address)
        before = client.ask({"op": "stats", "id": "s1"})["stats"]
        for i in range(3):
            answer = client.ask({"id": f"q{i}", "top_k": 1,
                                 "vertex": int(fitted_hard.vertex_ids[i])})
            assert answer["ok"] is True
        after = client.ask({"op": "stats", "id": "s2"})["stats"]
        client.close()
        window = delta_summary(before["metrics"], after["metrics"])
        assert window["offered"] == 3
        assert window["ok"] == 3
        assert window["availability"] == 1.0
        # the latency quantiles come from the bucket-backed histogram's
        # delta, not lifetime state
        assert window["p50_ms"] is not None
        assert window["latency_buckets"]["count"] == 3
        assert after["captured_unix"] >= before["captured_unix"]

    def test_fetch_stats_speaks_the_op(self, run_server):
        _, address = run_server()
        stats = request_op(address, "stats", timeout=10.0)
        assert isinstance(stats["metrics"], list)
        names = {row["name"] for row in stats["metrics"]}
        assert "netserve.stats_total" in names

    def test_scrape_does_not_disturb_match_traffic(self, run_server,
                                                   fitted_hard):
        """Interleaved on one connection: stats answers never eat a
        match response's id, and vice versa."""
        _, address = run_server()
        client = Client(address)
        client.send({"id": "m1", "top_k": 1,
                     "vertex": int(fitted_hard.vertex_ids[0])})
        client.send({"op": "stats", "id": "s1"})
        responses = {client.recv()["id"]: None for _ in range(2)}
        client.close()
        assert set(responses) == {"m1", "s1"}


class TestStatsOverStdio:
    def test_loop_answers_stats_inline(self, make_service, fitted_hard):
        service = make_service()
        request = {"id": "q0", "top_k": 1,
                   "vertex": int(fitted_hard.vertex_ids[0])}
        sink = io.StringIO()

        def source():
            yield json.dumps({"op": "stats", "id": "s1"})
            yield json.dumps(request)
            # the match is answered by a pool thread: wait for its
            # response to land before scraping the "after" snapshot
            deadline = time.monotonic() + 30.0
            while '"q0"' not in sink.getvalue():
                assert time.monotonic() < deadline, "match never answered"
                time.sleep(0.01)
            yield json.dumps({"op": "stats", "id": "s2"})

        written = serve_loop(service, source(), sink)
        assert written == 3
        responses = {}
        for line in sink.getvalue().splitlines():
            row = json.loads(line)
            responses[row["id"]] = row
        assert responses["s1"]["ok"] is True
        assert responses["q0"]["ok"] is True
        window = delta_summary(responses["s1"]["stats"]["metrics"],
                               responses["s2"]["stats"]["metrics"])
        assert window["offered"] == 1 and window["ok"] == 1
