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


class HeldNetServer(NetServer):
    """A :class:`NetServer` whose answers wait for :meth:`release`: what
    a slow backend looks like to the line server, so a test can hold
    responses outstanding (every real answer is written inline)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.held = True
        self.parked = []

    def submit(self, request, deliver) -> None:
        if self.held:
            self.parked.append((request, deliver))
        else:
            super().submit(request, deliver)

    def release(self) -> None:
        """Answer everything parked, on the loop, and stop holding."""
        def answer():
            self.held = False
            parked, self.parked = self.parked, []
            for request, deliver in parked:
                super(HeldNetServer, self).submit(request, deliver)

        self._loop.call_soon_threadsafe(answer)


@pytest.fixture()
def run_server(make_service):
    """Start a NetServer on an ephemeral port; returns
    ``(server, (host, port))``.  Teardown drains gracefully and asserts
    the drain was clean — a hung drain fails the test that caused it."""
    started = []

    def start(service=None, door=NetServer, **config_overrides):
        if service is None:
            service = make_service()
        settings = dict(host="127.0.0.1", port=0, drain_timeout_s=10.0)
        settings.update(config_overrides)
        server = door(service, NetServeConfig(**settings))
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
