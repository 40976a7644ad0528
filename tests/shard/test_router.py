"""Scatter/gather routing, end to end over real sockets.

The marquee claim: with every shard healthy, a routed response is
*bit-identical* to the single-process server's answer for the same
request — compared over the wire, byte for byte, modulo ``elapsed_ms``
alone.  The identity tests pin ``trace_id`` by sending an explicit
trace context (DESIGN.md §15): both the router and the single-process
server must *join* the caller's id rather than mint their own, so the
id is part of the compared payload, not masked out of it.  Then the
faults: a dead or hung shard makes a request past the merged head typed
``unavailable`` (at once, or after ``shard_timeout_ms``), never a
partial answer; a revived shard answers the next request whole;
oversized and garbled lines are answered, not fatal.
"""

from __future__ import annotations

import json
import socket
import time

from repro.loadgen import LoadConfig, SocketDriver, build_schedule, \
    fetch_info, run_schedule
from repro.netserve.protocol import MAX_LINE_BYTES
from repro.obs import registry
from repro.netserve import TABLE_K

from .conftest import HungWorker, StaticEndpoints


class Client:
    """The same blunt blocking JSONL client the netserve tests use."""

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

    def recv_raw(self) -> bytes:
        line = self.stream.readline()
        assert line, "server closed the connection unexpectedly"
        return line

    def recv(self) -> dict:
        return json.loads(self.recv_raw())

    def ask(self, payload) -> dict:
        self.send(payload)
        return self.recv()

    def ask_raw(self, payload) -> bytes:
        self.send(payload)
        return self.recv_raw()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


#: a request this wide is deeper than the head each worker's ``table``
#: op ships, so the router scatters it and each worker answers from its
#: own table: the fan-out tests below use it to keep exercising the
#: fan-out (a ``top_k <= table_k`` hit is answered from the router's
#: merged table and never reaches a shard)
PAST_TABLE = TABLE_K + 1


def match_payload(raw: bytes) -> str:
    """A wire response minus the only field allowed to differ
    (``elapsed_ms``).  ``trace_id`` stays in: the callers send an
    explicit trace context, so both sides must echo that exact id."""
    body = {key: value for key, value in json.loads(raw).items()
            if key != "elapsed_ms"}
    return json.dumps(body, sort_keys=True)


def trace_ctx(trace_id: str) -> dict:
    """A caller-minted trace context, as a downstream client sends it."""
    return {"trace_id": trace_id, "parent_span": "s0"}


class TestBitIdentity:
    def test_routed_equals_single_process_over_the_wire(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, single_address = shard_cluster
        _, routed_address = run_router(endpoints)
        routed = Client(routed_address)
        single = Client(single_address)
        vertices = [int(v) for v in fitted_hard.vertex_ids][:6]
        for i, vertex in enumerate(vertices):
            request = {"id": f"q{i}", "vertex": vertex, "top_k": 4,
                       "trace": trace_ctx(f"bit-{i}")}
            routed_raw = routed.ask_raw(request)
            assert json.loads(routed_raw)["trace_id"] == f"bit-{i}", \
                "router minted its own id instead of joining the caller's"
            assert match_payload(routed_raw) == \
                match_payload(single.ask_raw(request)), f"vertex {vertex}"
        routed.close()
        single.close()

    def test_default_top_k_also_identical(self, shard_cluster, run_router,
                                          fitted_hard):
        """No ``top_k`` in the request: the router must adopt the
        workers' default, not invent one."""
        endpoints, single_address = shard_cluster
        _, routed_address = run_router(endpoints)
        routed = Client(routed_address)
        single = Client(single_address)
        vertex = int(fitted_hard.vertex_ids[0])
        request = {"id": "dflt", "vertex": vertex,
                   "trace": trace_ctx("dflt-trace")}
        assert match_payload(routed.ask_raw(request)) == \
            match_payload(single.ask_raw(request))
        routed.close()
        single.close()

    def test_non_finite_budget_is_a_bad_request_not_a_wait_cap(
            self, shard_cluster, run_router, fitted_hard):
        """The router caps its own wait with the same finite-budget
        predicate the workers validate with; ``NaN`` reaches them
        verbatim and comes back typed."""
        endpoints, single_address = shard_cluster
        _, routed_address = run_router(endpoints)
        routed = Client(routed_address)
        single = Client(single_address)
        line = b'{"id": "nan", "vertex": %d, "budget_ms": NaN}' \
            % int(fitted_hard.vertex_ids[0])
        response = json.loads(routed.ask_raw(line))
        assert response["ok"] is False and response["id"] == "nan"
        assert response["error"]["type"] == "bad_request"
        assert response["error"] == \
            json.loads(single.ask_raw(line))["error"]
        routed.close()
        single.close()

    def test_typed_errors_forwarded_verbatim(self, shard_cluster,
                                             run_router):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        response = client.ask({"id": "bad", "vertex": 10 ** 9})
        client.close()
        assert response["ok"] is False and response["id"] == "bad"
        assert response["error"]["type"] == "bad_request"


class TestInfo:
    def test_info_reports_the_fleet(self, shard_cluster, run_router,
                                    fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        response = client.ask({"op": "info", "id": "i1"})
        client.close()
        assert response["ok"] is True and response["id"] == "i1"
        info = response["info"]
        assert info["vertices"] == [int(v) for v in fitted_hard.vertex_ids]
        assert info["images"] == len(fitted_hard.images)
        assert info["shards"] == {"total": 3, "live": 3}
        assert "shard" not in info, "per-worker detail must not leak"

    def test_workers_annotate_their_slot(self, shard_cluster):
        """Direct-to-worker info names the partition — the router's
        debugging backdoor."""
        endpoints, _ = shard_cluster
        info = fetch_info(endpoints.address_of(1))
        assert info["shard"]["slot"] == 1
        assert info["shard"]["count"] == 3
        assert 0 < info["shard"]["owned_images"] < info["images"]


class TestDeepFaults:
    """A request past the merged head asks every shard once: a shard
    that fails or is late makes the answer typed ``unavailable``, never
    partial, while hits stay exact."""

    def test_dead_shard_makes_a_deep_request_unavailable_at_once(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        endpoints.addresses[2] = None  # the worker "died"
        client = Client(address)
        started = time.monotonic()
        response = client.ask({"id": "p1", "top_k": PAST_TABLE,
                               "vertex": int(fitted_hard.vertex_ids[0])})
        elapsed = time.monotonic() - started
        client.close()
        assert response["ok"] is False and response["id"] == "p1"
        assert response["error"]["type"] == "unavailable"
        assert response["error"]["message"].startswith(
            "shard 2 did not answer"), response
        assert "degraded" not in response and "reason" not in response
        assert elapsed < 5.0, "the dead shard was waited on"
        reg = registry()
        assert reg.counter("shard.2.failed_total").value == 1
        assert reg.counter("shard.2.late_total").value == 0
        assert reg.counter("shard.router.unavailable_total").value == 1

    def test_hung_shard_is_unavailable_within_the_timeout(
            self, run_worker, run_router, fitted_hard):
        """Slot 1 accepts match requests and never answers them: a deep
        request waits ``shard_timeout_ms`` and no longer, while every
        hit is still the single-process answer."""
        _, live = run_worker(slot=0, count=2)
        _, hung = run_worker(slot=1, count=2, server_cls=HungWorker)
        _, single_address = run_worker()
        _, address = run_router(StaticEndpoints([live, hung]),
                                shard_timeout_ms=300.0)
        client = Client(address)
        single = Client(single_address)
        vertex = int(fitted_hard.vertex_ids[0])
        started = time.monotonic()
        deep = client.ask({"id": "deep", "vertex": vertex,
                           "top_k": PAST_TABLE})
        elapsed = time.monotonic() - started
        assert deep["ok"] is False
        assert deep["error"]["type"] == "unavailable"
        assert deep["error"]["message"].startswith(
            "shard 1 did not answer"), deep
        assert 0.25 <= elapsed < 0.3 + 2.0, elapsed
        for top_k in (1, 5, TABLE_K):
            request = {"id": f"hit-{top_k}", "vertex": vertex,
                       "top_k": top_k, "trace": trace_ctx(f"h-{top_k}")}
            assert match_payload(client.ask_raw(request)) == \
                match_payload(single.ask_raw(request))
        client.close()
        single.close()
        reg = registry()
        assert reg.counter("shard.1.late_total").value == 1
        assert reg.counter("shard.0.answered_total").value == 1
        assert reg.counter("shard.router.table_hits_total").value == 3

    def test_all_shards_down_is_typed_unavailable(self, shard_cluster,
                                                  run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        endpoints.addresses[:] = [None, None, None]
        client = Client(address)
        response = client.ask({"id": "u1", "top_k": PAST_TABLE,
                               "vertex": int(fitted_hard.vertex_ids[0])})
        client.close()
        assert response["ok"] is False and response["id"] == "u1"
        assert response["error"]["type"] == "unavailable"
        assert response["error"]["message"] == \
            "shards 0, 1, 2 did not answer (0 of 3 answered)"
        assert registry().counter(
            "shard.router.unavailable_total").value == 1


class TestRecovery:
    def test_dead_then_revived_shard_heals_to_bit_identity(
            self, shard_cluster, run_router, fitted_hard):
        """No breaker stands between a revived worker and the next
        request: the first deep request after it comes back is whole
        and equals the single-process answer."""
        endpoints, single_address = shard_cluster
        _, address = run_router(endpoints)
        vertex = int(fitted_hard.vertex_ids[0])
        client = Client(address)
        stashed = endpoints.addresses[1]
        endpoints.addresses[1] = None  # kill: the worker is unreachable
        for i in range(3):
            response = client.ask({"id": i, "vertex": vertex,
                                   "top_k": PAST_TABLE})
            assert response["error"]["type"] == "unavailable"
        endpoints.addresses[1] = stashed  # revive it
        single = Client(single_address)
        request = {"id": "heal", "vertex": vertex, "top_k": PAST_TABLE,
                   "trace": trace_ctx("heal-trace")}
        assert match_payload(client.ask_raw(request)) == \
            match_payload(single.ask_raw(request))
        client.close()
        single.close()
        assert registry().counter("shard.1.failed_total").value == 3


class TestProtocolEdges:
    def test_oversized_line_answered_and_connection_survives(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        huge = b'{"id": "big", "padding": "' + \
            b"x" * (MAX_LINE_BYTES + 1024) + b'"}'
        response = client.ask(huge)
        assert response["ok"] is False and response["id"] is None
        assert response["error"]["type"] == "bad_request"
        assert registry().counter(
            "shard.router.oversized_line").value == 1
        good = client.ask({"id": "after", "top_k": 1,
                           "vertex": int(fitted_hard.vertex_ids[0])})
        client.close()
        assert good["ok"] is True and good["id"] == "after"

    def test_bad_json_line_answered_not_fatal(self, shard_cluster,
                                              run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        bad = client.ask(b"{this is not json")
        assert bad["ok"] is False
        assert bad["error"]["type"] == "bad_request"
        good = client.ask({"id": "after", "top_k": 1,
                           "vertex": int(fitted_hard.vertex_ids[0])})
        client.close()
        assert good["ok"] is True and good["id"] == "after"

    def test_non_object_request_rejected(self, shard_cluster, run_router):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        response = client.ask([1, 2, 3])
        client.close()
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert "JSON object" in response["error"]["message"]


    def test_a_hit_behind_stats_is_answered_after_it(self, shard_cluster,
                                                    run_router, fitted_hard):
        """The router's ``stats`` is a coroutine (it scrapes the fleet)
        while a hit is answered inline: pipelined on one connection, the
        connection holds the hit until the scrape is written, so the
        answers come back in the order the lines were sent."""
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        client = Client(address)
        client.stream.write(
            json.dumps({"op": "stats", "id": "stats"}).encode() + b"\n" +
            json.dumps({"id": "hit", "top_k": 1,
                        "vertex": int(fitted_hard.vertex_ids[0])}).encode()
            + b"\n")
        client.stream.flush()
        first, second = client.recv(), client.recv()
        client.close()
        assert (first["id"], second["id"]) == ("stats", "hit")
        assert first["ok"] is True and second["ok"] is True
        assert registry().counter(
            "shard.router.table_hits_total").value == 1


class TestPooledConnectionCap:
    def test_a_burst_waits_at_the_router_not_shed_by_a_worker(
            self, run_worker, run_router, fitted_hard):
        """Three clients pipeline 50 past-table requests each through a
        2-worker router: 150 outstanding on each worker's pooled
        connection, past the worker's ``conn_inflight`` (32).  The
        router caps that connection at what the worker's ``info``
        advertises, so the excess waits at the router: no worker sheds,
        and every answer is whole."""
        endpoints = StaticEndpoints([run_worker(slot=slot, count=2)[1]
                                     for slot in range(2)])
        assert fetch_info(endpoints.address_of(0))["conn_inflight"] == 32
        _, address = run_router(endpoints)
        vertices = [int(v) for v in fitted_hard.vertex_ids]
        clients = [Client(address) for _ in range(3)]
        for c, client in enumerate(clients):
            for i in range(50):
                client.send({"id": f"{c}-{i}", "top_k": PAST_TABLE,
                             "vertex": vertices[i % len(vertices)]})
        answers = [client.recv() for client in clients for _ in range(50)]
        for client in clients:
            client.close()
        assert registry().counter("netserve.conn.overloaded_total").value \
            == 0
        assert len({answer["id"] for answer in answers}) == 150
        assert all(answer["ok"] and not answer["degraded"]
                   for answer in answers)


class TestLoadHarness:
    def test_open_loop_schedule_through_the_router(self, shard_cluster,
                                                   run_router,
                                                   fitted_hard):
        """`load run --connect` pointed at the router, unchanged."""
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        config = LoadConfig(process="uniform", rate=100.0, duration=0.25,
                            seed=5)
        schedule = build_schedule(config,
                                  [int(v) for v in fitted_hard.vertex_ids])
        report = run_schedule(SocketDriver(address), schedule)
        summary = report.summary()
        assert summary["offered"] == len(schedule)
        assert summary["outcomes"]["lost"] == 0
        assert summary["outcomes"]["ok"] == len(schedule)
        assert summary["availability"] == 1.0
