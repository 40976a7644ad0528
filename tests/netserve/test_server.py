"""The TCP front end, end to end over real sockets.

Every test speaks the actual wire protocol against a real
:class:`NetServer` on an ephemeral port.  The marquee claim — pipelined
responses bit-identical to the same queries served one at a time — is
asserted over the wire: one client pipelines everything, the other
sends strictly sequentially, and the match payloads must agree byte
for byte.  Tests that need answers outstanding hold them in a
:class:`HeldNetServer`, since a real one writes every answer inline.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from types import SimpleNamespace

from repro.netserve import TABLE_K
from repro.netserve.lineserver import LineServer
from repro.obs import registry, set_tracing_enabled, trace_recorder
from repro.obs.trace import SamplePolicy

from .conftest import HeldNetServer

#: a ``top_k`` deeper than the head the ``table`` op ships: a router
#: scatters it, a worker answers it from its own table
PAST_TABLE = TABLE_K + 1


class Client:
    """A blunt blocking JSONL client — tests want obvious, not fast."""

    def __init__(self, address, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.stream = self.sock.makefile("rwb")

    def send(self, payload) -> None:
        if isinstance(payload, (bytes, bytearray)):
            line = bytes(payload)
        else:
            line = json.dumps(payload).encode("utf-8")
        self.stream.write(line + b"\n")
        self.stream.flush()

    def recv(self) -> dict:
        line = self.stream.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def ask(self, payload) -> dict:
        self.send(payload)
        return self.recv()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def match_payload(response: dict) -> str:
    body = {key: value for key, value in response.items()
            if key not in ("elapsed_ms", "trace_id")}
    return json.dumps(body, sort_keys=True)


class TestProtocol:
    def test_info_handshake(self, run_server, fitted_hard):
        _, address = run_server()
        client = Client(address)
        response = client.ask({"op": "info", "id": "i1"})
        client.close()
        assert response["ok"] is True and response["id"] == "i1"
        info = response["info"]
        assert info["vertices"] == [int(v) for v in fitted_hard.vertex_ids]
        assert info["images"] == len(fitted_hard.images)
        assert info["conn_inflight"] == 32
        assert "max_batch" not in info and "batch_window_ms" not in info

    def test_pipelined_responses_demux_by_id(self, run_server, fitted_hard):
        _, address = run_server()
        client = Client(address)
        vertices = list(fitted_hard.vertex_ids)
        for i, vertex in enumerate(vertices[:6]):
            client.send({"id": f"q{i}", "vertex": vertex, "top_k": 2})
        responses = {client.recv()["id"] for _ in range(6)}
        client.close()
        assert responses == {f"q{i}" for i in range(6)}

    def test_bad_json_line_answered_not_fatal(self, run_server,
                                              fitted_hard):
        _, address = run_server()
        client = Client(address)
        bad = client.ask(b"{this is not json")
        assert bad["ok"] is False
        assert bad["error"]["type"] == "bad_request"
        # the connection is still perfectly serviceable
        good = client.ask({"id": "after", "vertex":
                           int(fitted_hard.vertex_ids[0])})
        client.close()
        assert good["ok"] is True and good["id"] == "after"

    def test_unknown_vertex_typed_error(self, run_server):
        _, address = run_server()
        client = Client(address)
        response = client.ask({"id": 1, "vertex": 10 ** 9})
        client.close()
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"

    def test_non_finite_budget_typed_error(self, run_server, fitted_hard):
        """``NaN`` is valid to ``json.loads``; it is not a budget."""
        _, address = run_server()
        client = Client(address)
        vertex = int(fitted_hard.vertex_ids[0])
        for budget in (b"NaN", b"Infinity"):
            response = client.ask(b'{"id": 1, "vertex": %d, "budget_ms": %s}'
                                  % (vertex, budget))
            assert response["ok"] is False
            assert response["error"]["type"] == "bad_request"
        client.close()

    def test_answers_are_never_held_for_an_ack(self, run_server):
        """Nagle's algorithm would hold an answer back until the one
        before it is ACKed, and the client's delayed ACK makes that up
        to 40 ms: every connection must have it off."""
        server, address = run_server()
        client = Client(address)
        client.ask({"op": "info", "id": 1})  # the connection is made
        [conn] = list(server._conns)
        sock = conn.transport.get_extra_info("socket")
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        client.close()

    def test_eof_flushes_in_flight_responses(self, run_server,
                                             fitted_hard):
        """Half-closing after pipelining must still deliver every
        response — the server flushes before hanging up."""
        _, address = run_server()
        client = Client(address)
        for i, vertex in enumerate(fitted_hard.vertex_ids[:4]):
            client.send({"id": i, "vertex": int(vertex)})
        client.sock.shutdown(socket.SHUT_WR)
        got = []
        while True:
            line = client.stream.readline()
            if not line:
                break
            got.append(json.loads(line)["id"])
        client.close()
        assert sorted(got) == [0, 1, 2, 3]


class TestBatchedExactness:
    def test_pipelined_equals_sequential_over_the_wire(self, run_server,
                                                       fitted_hard):
        """The acceptance criterion, measured at the socket: a pipelined
        burst of queries answers bit-identically to the same queries
        sent one at a time."""
        _, address = run_server()
        vertices = [int(v) for v in fitted_hard.vertex_ids]
        requests = [{"id": f"r{i}", "vertex": v, "top_k": PAST_TABLE + i % 3}
                    for i, v in enumerate(vertices)]

        pipelined = Client(address)
        for request in requests:
            pipelined.send(request)
        batched = {}
        for _ in requests:
            response = pipelined.recv()
            batched[response["id"]] = response
        pipelined.close()

        sequential = Client(address)
        singles = {}
        for request in requests:  # strictly one at a time
            response = sequential.ask(request)
            singles[response["id"]] = response
        sequential.close()

        assert set(batched) == set(singles)
        for request_id in singles:
            assert match_payload(batched[request_id]) == \
                match_payload(singles[request_id]), request_id


class TestBackpressure:
    def test_overloaded_shed_past_conn_inflight(self, run_server,
                                                fitted_hard):
        """Pipelining past the per-connection cap without reading gets
        typed overloaded rejections, not unbounded buffering."""
        server, address = run_server(door=HeldNetServer, conn_inflight=2)
        client = Client(address)
        vertex = int(fitted_hard.vertex_ids[0])
        # 2 occupy the cap (held by the backend), the rest shed
        for i in range(5):
            client.send({"id": i, "vertex": vertex, "top_k": PAST_TABLE})
        shed_total = registry().counter("netserve.conn.overloaded_total")
        assert wait_until(lambda: shed_total.value == 3)
        server.release()
        outcomes = {}
        for _ in range(5):
            response = client.recv()
            outcomes[response["id"]] = response
        client.close()
        shed = [r for r in outcomes.values()
                if not r["ok"] and r["error"]["type"] == "overloaded"]
        served = [r for r in outcomes.values() if r["ok"]]
        assert len(shed) == 3
        assert len(served) == 2
        assert shed_total.value == 3

    def test_a_shed_is_traced_like_any_other_answer(self, run_server,
                                                    make_service,
                                                    fitted_hard):
        """One refusal shape: the answer carries its ``trace_id``, joins
        the caller's trace context and ships its spans, and the trace
        is flagged ``shed`` and kept at sample rate 0 — or, with
        tracing off, carries no id at all."""
        service = make_service()
        service.tracer.policy = SamplePolicy(rate=0.0)
        server, address = run_server(service=service, door=HeldNetServer,
                                     conn_inflight=1)
        client = Client(address)
        vertex = int(fitted_hard.vertex_ids[0])
        # takes the one slot
        client.send({"id": "held", "vertex": vertex, "top_k": PAST_TABLE})
        shed = client.ask(
            {"id": "shed", "vertex": vertex, "top_k": PAST_TABLE,
             "trace": {"trace_id": "caller-7", "parent_span": "s4",
                       "return_spans": True}})
        assert shed["ok"] is False
        assert shed["error"]["type"] == "overloaded"
        assert shed["trace_id"] == "caller-7"
        assert "shed" in shed["trace"]["flags"]
        [row] = trace_recorder().snapshot()
        assert row["trace_id"] == "caller-7" and row["parent_span"] == "s4"
        assert row["flags"] == ["error", "shed"]
        minted = client.ask({"id": "shed-2", "vertex": vertex,
                             "top_k": PAST_TABLE})
        assert minted["error"]["type"] == "overloaded"
        assert minted["trace_id"] and minted["trace_id"] != "caller-7"
        set_tracing_enabled(False)
        untraced = client.ask({"id": "shed-3", "vertex": vertex,
                               "top_k": PAST_TABLE})
        assert untraced["error"]["type"] == "overloaded"
        assert "trace_id" not in untraced
        reg = registry()
        assert reg.counter("serve.error.overloaded").value == 3
        assert reg.counter("netserve.conn.overloaded_total").value == 3
        server.release()
        assert client.recv()["id"] == "held"
        client.close()

    def test_conns_gauge_tracks_connections(self, run_server):
        _, address = run_server()
        first = Client(address)
        first.ask({"op": "info", "id": 1})  # forces accept to complete
        assert registry().gauge("netserve.conns").value == 1.0
        second = Client(address)
        second.ask({"op": "info", "id": 2})
        assert registry().gauge("netserve.conns").value == 2.0
        first.close()
        second.close()


class TestDrain:
    def test_drain_flushes_inflight_then_exits_clean(self, run_server,
                                                     fitted_hard):
        """Requests the backend still holds when drain starts are still
        answered; the fixture teardown asserts exit code 0."""
        server, address = run_server(door=HeldNetServer)
        client = Client(address)
        for i, vertex in enumerate(fitted_hard.vertex_ids[:3]):
            client.send({"id": i, "vertex": int(vertex),
                         "top_k": PAST_TABLE})
        # wait until all three are accepted: drain guarantees flushing
        # what was *accepted*, and bytes the reader has not yet seen
        # are not
        assert wait_until(lambda: len(server.parked) == 3)
        server.trigger_drain()
        server.release()
        got = []
        while len(got) < 3:
            response = client.recv()
            got.append(response)
        client.close()
        assert all(r["ok"] for r in got)

    def test_new_connections_refused_after_drain(self, run_server):
        server, address = run_server()
        client = Client(address)
        client.ask({"op": "info", "id": 1})
        server.trigger_drain()
        client.close()
        # accept socket closes promptly; retry until it does
        deadline = time.monotonic() + 10.0
        refused = False
        while time.monotonic() < deadline and not refused:
            try:
                probe = socket.create_connection(address, timeout=1.0)
                probe.close()
                time.sleep(0.05)
            except OSError:
                refused = True
        assert refused

    def test_connection_accepted_as_the_drain_starts_is_closed(self):
        """The drain race, forced: the drain starts the moment a socket
        is accepted, before its protocol's ``connection_made`` has
        registered it, so the drain has decided what to wait for before
        the connection exists.  The connection must still be closed —
        not left open until the garbage collector happens by, which is
        why the collector is off while the client waits for EOF."""

        class LateHandler(LineServer):
            """A backend with nothing to flush, so the drain completes
            within one loop step once it starts."""

            def _connection(self):
                self._drain_event.set()
                return super()._connection()

        server = LateHandler(SimpleNamespace(
            host="127.0.0.1", port=0, conn_inflight=4,
            drain_timeout_s=5.0), metric_prefix="race")
        ready = threading.Event()
        outcome = {}

        def main():
            outcome["exit"] = server.run(
                install_signals=False,
                ready=lambda bound: (outcome.setdefault("bound", bound),
                                     ready.set()))

        gc.disable()
        try:
            thread = threading.Thread(target=main, daemon=True)
            thread.start()
            assert ready.wait(timeout=10)
            client = socket.create_connection(outcome["bound"], timeout=3.0)
            thread.join(timeout=10)
            assert not thread.is_alive() and outcome["exit"] == 0
            try:
                eof = client.recv(1) == b""
            except socket.timeout:
                eof = False
            client.close()
        finally:
            gc.enable()
        assert eof, "the drain left an accepted connection open"

