"""Loadgen fixtures: a deterministic fake clock and a cheap service.

The fake clock makes the open-loop schedule semantics *provable*: a
test advances time only through ``sleep`` and explicit stalls, so
intended-arrival latencies come out exact, not approximate.
"""

from __future__ import annotations

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
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


class FakeClock:
    """A manually advanced monotonic clock with a matching sleeper."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


@pytest.fixture()
def fake_clock():
    return FakeClock()


@pytest.fixture(scope="session")
def fitted_hard(tiny_bundle, tiny_dataset):
    """The cheapest real matcher (hard prompts, no tuning) — load tests
    exercise the serving path, not training quality."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    return matcher


@pytest.fixture()
def make_service(fitted_hard):
    """Pre-warmed services over the shared fitted matcher."""
    def make(**overrides) -> MatchService:
        return MatchService(fitted_hard,
                            config=ServeConfig(**overrides)).warmup()

    return make
