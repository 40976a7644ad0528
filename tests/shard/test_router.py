"""Scatter/gather routing, end to end over real sockets.

The marquee claim: with every shard healthy, a routed response is
*bit-identical* to the single-process server's answer for the same
request — compared over the wire, byte for byte, modulo ``elapsed_ms``
alone.  The identity tests pin ``trace_id`` by sending an explicit
trace context (DESIGN.md §15): both the router and the single-process
server must *join* the caller's id rather than mint their own, so the
id is part of the compared payload, not masked out of it (the PR 9
masking debt).  Then the faults: a dead shard costs
coverage (typed partial), not availability; an open breaker skips the
doomed shard and heals after cooldown back to bit-identity; a stalled
pooled connection is hedged on a fresh one; oversized and garbled
lines are answered, not fatal.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import threading
import time

import pytest

from repro.loadgen import LoadConfig, SocketDriver, build_schedule, \
    fetch_info, run_schedule
from repro.netserve.protocol import MAX_LINE_BYTES
from repro.obs import registry
from repro.netserve import TABLE_K
from repro.shard import ShardRouter

from .conftest import StaticEndpoints


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


class TestPartialDegradation:
    def test_dead_shard_costs_coverage_not_availability(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints, shard_timeout_ms=2000.0)
        endpoints.addresses[2] = None  # the worker "died"
        client = Client(address)
        response = client.ask({"id": "p1", "top_k": PAST_TABLE,
                               "vertex": int(fitted_hard.vertex_ids[0])})
        client.close()
        assert response["ok"] is True
        assert response["degraded"] is True
        assert response["reason"] == "partial"
        assert response["shards_answered"] == 2
        assert response["shards_total"] == 3
        # every image the two live shards own: 7 + 7 of the 20
        assert len(response["matches"]) == 14
        owned_by_2 = registry().counter("shard.2.failed_total").value
        assert owned_by_2 >= 1
        assert registry().counter("shard.router.partial_total").value >= 1

    def test_a_shard_saying_degraded_degrades_the_merge(self):
        """Every merged answer is ``tier: "full"``; it is degraded when
        it is partial or when any shard body says ``degraded: true``."""
        router = ShardRouter(StaticEndpoints([None, None]))

        def body(image, degraded, **extra):
            return dict({"ok": True, "vertex": 3, "tier": "full",
                         "degraded": degraded,
                         "matches": [{"image": image, "score": 1.0}]},
                        **extra)

        def merged(*oks):
            return asyncio.run(router._merged_response(
                {"top_k": 2}, "m", list(oks), 2, 0.0))

        healthy = merged(body(1, False), body(2, False))
        assert healthy["tier"] == "full" and healthy["degraded"] is False
        assert "reason" not in healthy
        flagged = merged(body(1, False), body(2, True, reason="odd"))
        assert flagged["tier"] == "full" and flagged["degraded"] is True
        assert flagged["reason"] == "odd"
        assert registry().counter("shard.router.degraded_total").value == 1

    def test_all_shards_down_is_typed_unavailable(self, shard_cluster,
                                                  run_router):
        endpoints, _ = shard_cluster
        _, address = run_router(endpoints)
        endpoints.addresses[:] = [None, None, None]
        client = Client(address)
        response = client.ask({"id": "u1", "vertex": 1,
                               "top_k": PAST_TABLE})
        client.close()
        assert response["ok"] is False and response["id"] == "u1"
        assert response["error"]["type"] == "unavailable"
        assert registry().counter(
            "shard.router.unavailable_total").value == 1


class TestBreakerRecovery:
    def test_open_skip_then_halfopen_heals_to_bit_identity(
            self, shard_cluster, run_router, fitted_hard):
        endpoints, single_address = shard_cluster
        _, address = run_router(endpoints, breaker_window=4,
                                breaker_min_calls=2,
                                breaker_failure_threshold=0.5,
                                breaker_cooldown_ms=200.0)
        vertex = int(fitted_hard.vertex_ids[0])
        client = Client(address)
        stashed = endpoints.addresses[1]
        endpoints.addresses[1] = None  # kill: the worker is unreachable
        for i in range(4):  # feed the breaker failures until it opens
            response = client.ask({"id": i, "vertex": vertex,
                                   "top_k": PAST_TABLE})
            assert response["ok"] is True and response["reason"] == "partial"
        assert registry().counter("shard.1.skipped_total").value >= 1, \
            "breaker never opened — shard 1 kept being dialed"
        # revive the worker and let the cooldown elapse
        endpoints.addresses[1] = stashed
        time.sleep(0.25)
        single = Client(single_address)
        deadline = time.monotonic() + 10.0
        healed = False
        while time.monotonic() < deadline and not healed:
            request = {"id": "heal", "vertex": vertex, "top_k": PAST_TABLE,
                       "trace": trace_ctx("heal-trace")}
            routed_raw = client.ask_raw(request)
            healed = json.loads(routed_raw).get("reason") != "partial"
            if healed:
                assert match_payload(routed_raw) == \
                    match_payload(single.ask_raw(request))
            else:
                time.sleep(0.1)
        client.close()
        single.close()
        assert healed, "breaker never closed after the worker came back"


class TestHedging:
    def test_stalled_pooled_connection_is_hedged_fresh(self, run_router):
        """First (pooled) connection swallows requests; every fresh
        connection answers fast.  The hedge must win."""
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(0.2)
        stop = threading.Event()
        connections = itertools.count()
        # the router's pooled connection is the first to carry a match
        # request; its boot-time info and table exchanges come before
        pooled = {}

        def serve(conn, index):
            stream = conn.makefile("rwb")
            for line in stream:
                try:
                    request = json.loads(line)
                except ValueError:
                    continue
                if "op" not in request and \
                        pooled.setdefault("index", index) == index:
                    stop.wait(20.0)  # the stall the hedge routes around
                    return
                body = {"id": request.get("id"), "ok": True,
                        "vertex": request.get("vertex"), "tier": "full",
                        "degraded": False,
                        "matches": [{"image": 7, "score": 1.0}],
                        "elapsed_ms": 0.1}
                stream.write((json.dumps(body) + "\n").encode("utf-8"))
                stream.flush()

        def accept_loop():
            while not stop.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                threading.Thread(target=serve,
                                 args=(conn, next(connections)),
                                 daemon=True).start()

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()
        try:
            endpoints = StaticEndpoints([server.getsockname()[:2]])
            _, address = run_router(endpoints, shard_timeout_ms=8000.0,
                                    hedge_fraction=0.05)
            client = Client(address)
            started = time.monotonic()
            response = client.ask({"id": "h1", "vertex": 3,
                                   "top_k": PAST_TABLE})
            elapsed = time.monotonic() - started
            client.close()
            assert response["ok"] is True
            assert response["matches"] == [{"image": 7, "score": 1.0}]
            assert response.get("degraded") is False
            assert elapsed < 6.0, "answer came from the stall, not the hedge"
            assert registry().counter("shard.0.hedges_total").value == 1
            assert registry().counter("shard.0.answered_total").value == 1
        finally:
            stop.set()
            server.close()
            acceptor.join(timeout=5.0)


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
