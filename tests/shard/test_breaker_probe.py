"""The router's per-shard breaker admits one half-open probe.

``_call_shard`` asks the shard's breaker for admission before it dials;
in half-open that admission takes the single probe slot, so a burst of
concurrent scatters reaches a recovering worker once, not once per
request.  The probe's outcome always lands — late, failed or cancelled —
so the slot cannot stay taken."""

from __future__ import annotations

import asyncio

from repro.obs.trace import NULL_TRACE
from repro.serve import (STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                         CircuitBreaker)
from repro.shard import ShardRouter

from .conftest import StaticEndpoints


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class HeldShard:
    """A shard client whose answers wait for ``release``."""

    def __init__(self) -> None:
        self.calls = 0
        self.release = asyncio.Event()

    async def request(self, payload: dict, *, timeout: float) -> dict:
        self.calls += 1
        await asyncio.wait_for(self.release.wait(), timeout)
        return {"ok": True, "matches": []}

    request_once = request


def half_open_router():
    """A one-slot router whose breaker is half-open on a fake clock."""
    router = ShardRouter(StaticEndpoints([("127.0.0.1", 1)]))
    clock = Clock()
    breaker = CircuitBreaker("probe0", cooldown=1.0, clock=clock)
    breaker.force_open()
    clock.now += 1.0
    router._breakers[0] = breaker
    router._clients = [HeldShard()]
    return router, breaker, clock


def scatter(router, count):
    return [asyncio.ensure_future(router._call_shard(
        0, {"vertex": 0, "top_k": 20}, 5.0, None, NULL_TRACE))
        for _ in range(count)]


def test_half_open_breaker_lets_one_concurrent_scatter_through():
    async def main():
        router, breaker, _ = half_open_router()
        assert breaker.state() == STATE_HALF_OPEN
        calls = scatter(router, 8)
        await asyncio.sleep(0.05)
        shard = router._clients[0]
        assert shard.calls == 1, "every scatter reached the shard"
        shard.release.set()
        answers = await asyncio.gather(*calls)
        assert sum(answer is not None for answer in answers) == 1
        assert breaker.state() == STATE_CLOSED
        return shard.calls

    assert asyncio.run(main()) == 1


def test_a_cancelled_probe_records_a_failure_and_frees_the_slot():
    async def main():
        router, breaker, clock = half_open_router()
        (probe,) = scatter(router, 1)
        await asyncio.sleep(0.05)
        probe.cancel()
        await asyncio.gather(probe, return_exceptions=True)
        assert breaker.state() == STATE_OPEN
        clock.now += 1.0
        router._clients[0].release.set()
        (retry,) = scatter(router, 1)
        assert await retry is not None
        assert breaker.state() == STATE_CLOSED
        assert router._clients[0].calls == 2

    asyncio.run(main())
