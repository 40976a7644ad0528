"""Netserve fixtures: a cheap fitted service and a live TCP server.

The server fixture runs a real :class:`NetServer` on an ephemeral port
inside a background thread (no subprocess, no fitting per test) and
tears it down through the same drain path production uses — every test
run is also a graceful-shutdown test.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.netserve import NetServeConfig, NetServer
from repro.obs import (registry, reset_spans, set_tracing_enabled,
                       trace_recorder)
from repro.serve import MatchService, ServeConfig


@pytest.fixture(autouse=True)
def clean_metrics():
    registry().reset()
    reset_spans()
    trace_recorder().reset()
    set_tracing_enabled(True)
    yield
    registry().reset()
    reset_spans()
    trace_recorder().reset()
    set_tracing_enabled(True)


@pytest.fixture(scope="session")
def fitted_hard(tiny_bundle, tiny_dataset):
    """Hard prompts, no tuning: the serving path without the training
    bill."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    return matcher


@pytest.fixture()
def make_service(fitted_hard):
    def make(**overrides) -> MatchService:
        return MatchService(fitted_hard,
                            config=ServeConfig(**overrides)).warmup()

    return make


@pytest.fixture()
def gated_service(make_service):
    """``(service, gate)``: a service whose scoring calls block until
    ``gate`` is set — a busy scorer on demand, so a test can pile
    requests up behind an in-flight call instead of racing the
    batcher's dispatch-when-idle rule."""
    service = make_service()
    gate = threading.Event()
    handle_batch = service.handle_batch

    def held(requests):
        assert gate.wait(timeout=30)
        return handle_batch(requests)

    service.handle_batch = held
    yield service, gate
    gate.set()


@pytest.fixture()
def run_server(make_service):
    """Start a NetServer on an ephemeral port; returns
    ``(server, (host, port))``.  Teardown drains gracefully and asserts
    the drain was clean — a hung drain fails the test that caused it."""
    started = []

    def start(service=None, **config_overrides):
        if service is None:
            service = make_service()
        settings = dict(host="127.0.0.1", port=0, batch_window_ms=5.0,
                        max_batch=8, drain_timeout_s=10.0)
        settings.update(config_overrides)
        server = NetServer(service, NetServeConfig(**settings))
        ready = threading.Event()
        bound = {}
        exit_code = {}

        def on_ready(address):
            bound["address"] = address
            ready.set()

        def main():
            exit_code["value"] = server.run(install_signals=False,
                                            ready=on_ready)
            ready.set()  # unblock even if startup failed

        thread = threading.Thread(target=main, daemon=True)
        thread.start()
        assert ready.wait(timeout=60), "server never became ready"
        assert "address" in bound, "server exited before binding"
        started.append((server, thread, exit_code))
        return server, bound["address"]

    yield start
    for server, thread, exit_code in started:
        server.trigger_drain()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server failed to drain"
        assert exit_code.get("value") == 0, "drain was not clean"
