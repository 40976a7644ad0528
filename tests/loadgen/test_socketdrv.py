"""The socket driver: the load harness over a real TCP server.

The driver must be indistinguishable from an in-process service to
``run_schedule`` — every offered request accounted exactly once (ok,
shed, or a synthesized ``unavailable`` when the pipe dies), nothing
lost, nothing raised into the dispatch loop.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.loadgen import (LoadConfig, SocketDriver, build_schedule,
                           fetch_info, parse_address, probe_info,
                           run_schedule)
from repro.netserve import NetServeConfig, NetServer


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.1.2.3:9000") == ("10.1.2.3", 9000)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_address(":9000") == ("127.0.0.1", 9000)

    def test_port_zero_allowed_for_listeners(self):
        assert parse_address("0.0.0.0:0") == ("0.0.0.0", 0)

    @pytest.mark.parametrize("spec", ["9000", "host:", "host:abc",
                                      "host:70000", ""])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_address(spec)


@pytest.fixture()
def live_server(make_service):
    """A real NetServer over the cheap fitted service, torn down through
    the drain path."""
    service = make_service()
    server = NetServer(service, NetServeConfig(
        host="127.0.0.1", port=0, drain_timeout_s=10.0))
    ready = threading.Event()
    bound = {}

    def on_ready(address):
        bound["address"] = address
        ready.set()

    thread = threading.Thread(
        target=lambda: server.run(install_signals=False, ready=on_ready),
        daemon=True)
    thread.start()
    assert ready.wait(timeout=60)
    yield server, bound["address"]
    server.trigger_drain()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestFetchInfo:
    def test_info_names_the_vertex_space(self, live_server, fitted_hard):
        _, address = live_server
        info = fetch_info(address)
        assert info["vertices"] == [int(v) for v in fitted_hard.vertex_ids]
        assert info["images"] == len(fitted_hard.images)

    def test_connection_refused_is_loud(self):
        with pytest.raises(OSError):
            fetch_info(("127.0.0.1", 9), timeout=2.0)


class TestSocketDriver:
    def test_full_schedule_accounted_over_the_wire(self, live_server,
                                                   fitted_hard):
        _, address = live_server
        config = LoadConfig(process="uniform", rate=200.0, duration=0.25,
                            seed=3)
        schedule = build_schedule(config,
                                  [int(v) for v in fitted_hard.vertex_ids])
        report = run_schedule(SocketDriver(address), schedule)
        summary = report.summary()
        assert summary["offered"] == len(schedule)
        assert summary["outcomes"]["lost"] == 0
        assert summary["outcomes"]["ok"] == len(schedule)
        assert summary["availability"] == 1.0

    def test_shutdown_handshake_drains_trailing_responses(self,
                                                          live_server,
                                                          fitted_hard):
        """Responses still in the server's window when the driver
        shuts down must be read back before shutdown() returns —
        that is the SHUT_WR half-close contract."""
        _, address = live_server
        responses = []
        driver = SocketDriver(address)
        driver.start(responses.append)
        for i, vertex in enumerate(fitted_hard.vertex_ids[:5]):
            assert driver.submit({"id": i, "vertex": int(vertex)}) is None
        driver.shutdown()  # no sleep: the handshake must do the waiting
        assert sorted(r["id"] for r in responses) == [0, 1, 2, 3, 4]
        assert all(r["ok"] for r in responses)

    def test_lost_connection_becomes_typed_response(self, live_server):
        server, address = live_server
        responses = []
        driver = SocketDriver(address)
        driver.start(responses.append)
        server.trigger_drain()  # server goes away under the driver
        deadline = time.monotonic() + 10.0
        synthesized = None
        while time.monotonic() < deadline and synthesized is None:
            result = driver.submit({"id": "after-loss", "vertex": 1})
            if result is not None:
                synthesized = result
            time.sleep(0.02)
        assert synthesized is not None, "submit never noticed the loss"
        assert synthesized["ok"] is False
        assert synthesized["error"]["type"] == "unavailable"
        assert synthesized["id"] == "after-loss"
        driver.shutdown()


@pytest.fixture()
def flaky_info_server():
    """A listener whose first N connections hang up without answering
    and whose later ones answer ``info`` properly — the mid-restart
    server the retry exists for."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.2)
    stop = threading.Event()
    state = {"failures_left": 0, "connections": 0}

    def loop():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            state["connections"] += 1
            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                conn.close()  # EOF before any response line
                continue
            stream = conn.makefile("rwb")
            line = stream.readline()
            request = json.loads(line)
            stream.write((json.dumps(
                {"id": request.get("id"), "ok": True,
                 "info": {"images": 9, "top_k_default": 2}}) +
                "\n").encode("utf-8"))
            stream.flush()
            conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    yield server.getsockname()[:2], state
    stop.set()
    server.close()
    thread.join(timeout=5.0)


class TestInfoRetry:
    def test_one_dropped_connection_is_absorbed(self, flaky_info_server):
        address, state = flaky_info_server
        state["failures_left"] = 1
        info = fetch_info(address, timeout=5.0)
        assert info["images"] == 9
        assert state["connections"] == 2, "exactly one retry"

    def test_retries_are_bounded(self, flaky_info_server):
        address, state = flaky_info_server
        state["failures_left"] = 10
        with pytest.raises((OSError, ValueError)):
            fetch_info(address, timeout=5.0, attempts=2)
        assert state["connections"] == 2, "attempts is a hard cap"

    def test_single_attempt_fails_fast(self, flaky_info_server):
        address, state = flaky_info_server
        state["failures_left"] = 1
        with pytest.raises((OSError, ValueError)):
            fetch_info(address, timeout=5.0, attempts=1)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            fetch_info(("127.0.0.1", 9), attempts=0)


class TestProbeInfo:
    def test_live_server_probes_ok(self, flaky_info_server):
        address, _ = flaky_info_server
        probe = probe_info(address, timeout=5.0)
        assert probe["ok"] is True
        assert probe["info"]["images"] == 9

    def test_dead_address_synthesizes_typed_unavailable(self):
        probe = probe_info(("127.0.0.1", 9), timeout=1.0)
        assert probe["ok"] is False
        assert probe["error"]["type"] == "unavailable"
        assert "127.0.0.1:9" in probe["error"]["message"]

    def test_never_raises_even_on_garbage(self, flaky_info_server):
        address, state = flaky_info_server
        state["failures_left"] = 5
        probe = probe_info(address, timeout=1.0)
        assert probe["ok"] is False
        assert probe["error"]["type"] == "unavailable"
