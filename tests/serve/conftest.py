"""Serve-suite fixtures: a fitted soft-prompt matcher, a service
factory and a fake clock.

Every test runs against a clean metrics registry (counters are
process-wide), and services are pre-warmed in the factory so fault
injection applied *after* construction never poisons warmup itself.
"""

from __future__ import annotations

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import registry, reset_spans, set_tracing_enabled, trace_recorder
from repro.serve import MatchService, ServeConfig


class FakeClock:
    """A clock that moves only when a test advances it."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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
def fitted_soft(tiny_bundle, tiny_dataset):
    """A briefly tuned soft-prompt matcher — the 'expensive' primary
    whose per-request encode the serve layer must guard."""
    matcher = CrossEM(tiny_bundle, CrossEMConfig(prompt="soft", epochs=1,
                                                 seed=3))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    return matcher


@pytest.fixture()
def make_service(fitted_soft):
    """Factory for pre-warmed services over the shared fitted matcher.

    Keyword overrides go straight into :class:`ServeConfig`.
    """
    def make(**overrides) -> MatchService:
        return MatchService(fitted_soft,
                            config=ServeConfig(**overrides)).warmup()

    return make
