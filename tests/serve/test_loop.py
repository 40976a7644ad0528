"""The stdin/stdout JSON-lines loop: corrupt input never stops it."""

from __future__ import annotations

import io
import json


from repro.obs import registry
from repro.serve import serve_loop

from .test_batch_service import canonical
from .test_service import PAST_TABLE


def run_loop(service, lines):
    source = io.StringIO("".join(line + "\n" for line in lines))
    sink = io.StringIO()
    written = serve_loop(service, source, sink)
    responses = [json.loads(line) for line in
                 sink.getvalue().splitlines() if line]
    return written, responses


class TestServeLoop:
    def test_round_trip_survives_corrupt_lines(self, make_service,
                                               fitted_soft):
        service = make_service()
        vertex = fitted_soft.vertex_ids[0]
        written, responses = run_loop(service, [
            json.dumps({"id": "q1", "vertex": vertex}),
            "",  # blank lines are skipped, not answered
            "{this is not json",
            json.dumps({"id": "q2", "vertex": 10 ** 9}),
            json.dumps({"id": "q3", "vertex": vertex, "top_k": 2}),
        ])
        assert written == 4
        assert len(responses) == 4
        by_id = {r["id"]: r for r in responses}

        assert by_id["q1"]["ok"] is True
        assert by_id["q1"]["tier"] == "full"

        corrupt = by_id[None]
        assert corrupt["ok"] is False
        assert corrupt["error"]["type"] == "bad_request"
        assert "invalid JSON" in corrupt["error"]["message"]

        assert by_id["q2"]["ok"] is False
        assert by_id["q2"]["error"]["type"] == "bad_request"

        # the loop kept answering to the very last request
        assert by_id["q3"]["ok"] is True
        assert len(by_id["q3"]["matches"]) == 2

    def test_every_response_is_one_compact_json_line(self, make_service,
                                                     fitted_soft):
        service = make_service()
        vertex = fitted_soft.vertex_ids[1]
        source = io.StringIO(json.dumps({"id": 7, "vertex": vertex}) + "\n")
        sink = io.StringIO()
        serve_loop(service, source, sink)
        payload = sink.getvalue()
        assert payload.endswith("\n")
        lines = payload.splitlines()
        assert len(lines) == 1
        assert "\n" not in lines[0]
        assert json.loads(lines[0])["id"] == 7

    def test_control_ops_are_answered_like_the_tcp_door(self, make_service,
                                                        fitted_soft):
        """``info`` and ``stats`` go through the ops table every door
        shares — stdio used to answer ``info`` with ``bad_request``."""
        service = make_service()
        vertex = fitted_soft.vertex_ids[0]
        written, responses = run_loop(service, [
            json.dumps({"op": "info", "id": "i1"}),
            json.dumps({"id": "q1", "vertex": vertex}),
            json.dumps({"op": "stats", "id": "s1"}),
            json.dumps({"op": "reboot", "id": "u1"}),
        ])
        assert written == 4
        by_id = {r["id"]: r for r in responses}
        assert by_id["i1"]["ok"] is True
        info = by_id["i1"]["info"]
        assert info["vertices"] == [int(v) for v in fitted_soft.vertex_ids]
        assert info["images"] == len(fitted_soft.images)
        assert by_id["q1"]["ok"] is True
        assert by_id["s1"]["ok"] is True
        assert isinstance(by_id["s1"]["stats"]["metrics"], list)
        # an op nobody knows is just a vertex-less request
        assert by_id["u1"]["error"]["type"] == "bad_request"

    def test_empty_input_serves_nothing(self, make_service):
        service = make_service()
        written, responses = run_loop(service, [])
        assert written == 0
        assert responses == []

    def test_bad_lines_counted_separately(self, make_service, fitted_soft):
        """Framing corruption gets its own counter, distinct from
        well-formed-but-invalid requests (both are bad_request to the
        client, but only one means the *transport* is sick)."""
        service = make_service()
        vertex = fitted_soft.vertex_ids[0]
        run_loop(service, [
            "{not json",
            "also not json",
            json.dumps({"id": "bad", "vertex": 10 ** 9}),  # unknown vertex
            json.dumps({"id": "good", "vertex": vertex}),
        ])
        reg = registry()
        assert reg.counter("serve.requests.bad_line").value == 2
        # every bad line still counts as a (failed) request
        assert reg.counter("serve.requests_total").value == 4
        assert reg.counter("serve.error.bad_request").value == 3

    def test_piped_burst_answers_handle_bytes_in_order(
            self, make_service, fitted_soft):
        """Stdio answers every line inline, as the TCP door does: a
        burst of deep requests comes back in line order, each with the
        bytes ``handle`` gives it."""
        service = make_service()
        vertices = fitted_soft.vertex_ids
        requests = [{"id": f"q{i}", "vertex": vertices[i % len(vertices)],
                     "top_k": PAST_TABLE + i % 3} for i in range(16)]
        source = io.StringIO("".join(json.dumps(r) + "\n"
                                     for r in requests))
        sink = io.StringIO()
        assert serve_loop(service, source, sink) == 16
        answers = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [a["id"] for a in answers] == [r["id"] for r in requests]
        for request, answer in zip(requests, answers):
            assert canonical(answer) == canonical(service.handle(request))
