"""What every workload is handed and what it hands back."""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Callable, Dict, List, Tuple, TypeVar

from procs import Fleet
from spans import SpanRecorder

__all__ = ["Run", "Outcome", "timed", "median_ms", "repeat_for"]

T = TypeVar("T")


@dataclasses.dataclass
class Run:
    """One invocation: its inputs and its instruments."""

    workload: str
    seed: int
    #: length of the measured phases, all together
    seconds: float
    #: layer-probe pass on (per-layer metrics) or off (end-to-end)
    trace: bool
    #: seconds from process start until the program was imported
    boot_s: float
    recorder: SpanRecorder
    #: every child process the workload starts registers here, so the
    #: wall-clock cap can reach it
    fleet: Fleet


@dataclasses.dataclass
class Outcome:
    """Metrics by name (units live in BENCHMARK.json), the oracle's
    verdict, and free-form detail for the report file."""

    end_to_end: Dict[str, float] = dataclasses.field(default_factory=dict)
    per_layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: oracle failures and validity flags, in words
    problems: List[str] = dataclasses.field(default_factory=list)
    detail: dict = dataclasses.field(default_factory=dict)

    def check(self, passed: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations checked by the oracle; when the
        check did not pass they all count as failed."""
        self.attempted += count
        if not passed:
            self.failed += count
            self.problems.append(what)


def timed(call: Callable[[], T]) -> Tuple[T, float]:
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3


def repeat_for(call: Callable[[], object], seconds: float,
               at_least: int = 3) -> List[float]:
    """Call repeatedly for about ``seconds`` (and at least ``at_least``
    times); returns each call's duration in seconds."""
    durations: List[float] = []
    stop_at = time.perf_counter() + seconds
    while len(durations) < at_least or time.perf_counter() < stop_at:
        durations.append(timed(call)[1])
    return durations
