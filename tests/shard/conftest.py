"""Shard fixtures: a masked worker trio behind a real router.

The cluster fixture runs one :class:`NetServer` per shard slot — each
over a :class:`MatchService` masked to its partition of the image
space — plus an unmasked control server, all on ephemeral ports in
background threads.  The router fixture runs a real
:class:`ShardRouter` over a mutable static endpoint table, so tests
kill and revive shards by flipping one entry.  Teardown drains the
router first, then every worker, through the same paths production
uses.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.netserve import NetServeConfig, NetServer
from repro.obs import (registry, reset_spans, set_tracing_enabled,
                       trace_recorder)
from repro.serve import MatchService, ServeConfig
from repro.shard import RouterConfig, ShardRouter


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
    """Hard prompts, no tuning — every shard fits this identically."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    return matcher


class StaticEndpoints:
    """The trivial endpoint provider: a mutable address table.

    Tests kill a shard by setting its entry to ``None`` and revive it
    by putting the address back — exactly the signal a supervisor
    restart sends the router.
    """

    def __init__(self, addresses: List[Optional[Tuple[str, int]]]) -> None:
        self.addresses = list(addresses)
        self.count = len(self.addresses)

    def address_of(self, slot: int) -> Optional[Tuple[str, int]]:
        return self.addresses[slot]

    def live_count(self) -> int:
        return sum(1 for a in self.addresses if a is not None)


class HungWorker(NetServer):
    """A worker that accepts match requests and never answers them —
    control ops (``info``, ``table``, ``stats``) still answer — until
    its drain begins, which answers what it holds so the drain stays
    clean."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.held = []

    def submit(self, request, deliver) -> None:
        self.held.append((request, deliver))

    def trigger_drain(self) -> None:
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._release)
            except RuntimeError:
                pass  # loop already closed: nothing is held
        super().trigger_drain()

    def _release(self) -> None:
        held, self.held = self.held, []
        for request, deliver in held:
            deliver(self.service.handle(request))


@pytest.fixture()
def run_worker(fitted_hard):
    """Start NetServers over (optionally masked) services; teardown
    drains each one and asserts the drain was clean."""
    started = []

    def start(slot: Optional[int] = None, count: Optional[int] = None,
              server_cls=NetServer,
              **server_overrides) -> Tuple[NetServer, Tuple[str, int]]:
        service = MatchService(
            fitted_hard,
            config=ServeConfig(shard_slot=slot,
                               shard_count=count)).warmup()
        settings = dict(host="127.0.0.1", port=0, drain_timeout_s=10.0)
        settings.update(server_overrides)
        server = server_cls(service, NetServeConfig(**settings))
        ready = threading.Event()
        bound = {}
        exit_code = {}

        def on_ready(address):
            bound["address"] = address
            ready.set()

        def main():
            exit_code["value"] = server.run(install_signals=False,
                                            ready=on_ready)
            ready.set()

        thread = threading.Thread(target=main, daemon=True)
        thread.start()
        assert ready.wait(timeout=60), "worker never became ready"
        assert "address" in bound, "worker exited before binding"
        started.append((server, thread, exit_code))
        return server, bound["address"]

    yield start
    for server, thread, exit_code in started:
        server.trigger_drain()
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker failed to drain"


@pytest.fixture()
def shard_cluster(run_worker):
    """Three masked shard workers plus an unmasked single-process
    control; returns ``(endpoints, single_address)``."""
    addresses = []
    for slot in range(3):
        _, address = run_worker(slot=slot, count=3)
        addresses.append(address)
    _, single_address = run_worker()
    return StaticEndpoints(addresses), single_address


@pytest.fixture()
def run_router():
    """Start a ShardRouter on an ephemeral port; teardown drains it
    and asserts the exit code was 0 (the clean-drain contract)."""
    started = []

    def start(endpoints, **config_overrides) -> Tuple[ShardRouter,
                                                      Tuple[str, int]]:
        settings = dict(host="127.0.0.1", port=0, shard_timeout_ms=10000.0,
                        drain_timeout_s=10.0)
        settings.update(config_overrides)
        router = ShardRouter(endpoints, RouterConfig(**settings))
        ready = threading.Event()
        bound = {}
        exit_code = {}

        def on_ready(address):
            bound["address"] = address
            ready.set()

        def main():
            exit_code["value"] = router.run(install_signals=False,
                                            ready=on_ready)
            ready.set()

        thread = threading.Thread(target=main, daemon=True)
        thread.start()
        assert ready.wait(timeout=60), "router never became ready"
        assert "address" in bound, "router exited before binding"
        started.append((router, thread, exit_code))
        return router, bound["address"]

    yield start
    for router, thread, exit_code in started:
        router.trigger_drain()
        thread.join(timeout=30)
        assert not thread.is_alive(), "router failed to drain"
        assert exit_code.get("value") == 0, "router drain was not clean"
