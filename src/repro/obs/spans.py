"""Nestable span timers aggregated into a hierarchical profile.

Usage::

    from repro.obs import span

    with span("fit"):
        for _ in range(epochs):
            with span("epoch") as ep:
                ...
            seconds.append(ep.elapsed)

Nesting builds slash-joined paths: the inner span above aggregates
under ``fit/epoch``.  A span opened outside any other span keeps its
name verbatim, so ``span("fit/epoch")`` at top level lands in the same
bucket — the path *is* the identity.

Per path the aggregator keeps one
:class:`~repro.obs.hist.BucketHistogram` of durations in seconds, over
the same fixed layout as every registry histogram: call count and total
wall time are exact, and p50/p95 are exact to one bucket's width over
the whole run.  Aggregation is process-wide and thread-safe; the
nesting stack is thread-local, so concurrent threads profile
independently without seeing each other's parents.

Disabled path: :func:`set_spans_enabled(False) <set_spans_enabled>` (or
``REPRO_TELEMETRY=0`` in the environment) skips the stack push and the
locked aggregation entirely.  A span still measures its own
``elapsed`` — two ``perf_counter`` reads, the exact cost of the ad-hoc
timing the span API replaced — so code that *consumes* a span's elapsed
time (e.g. the matcher's efficiency report) behaves identically either
way.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

from .hist import BucketHistogram
from .report import format_span_table

__all__ = ["Span", "span", "span_snapshot", "format_profile", "reset_spans",
           "set_spans_enabled", "spans_enabled"]


def _telemetry_env_enabled() -> bool:
    """Whether ``REPRO_TELEMETRY`` enables telemetry (shared by the span
    aggregator and the tracer, which gate independently after import)."""
    return os.environ.get("REPRO_TELEMETRY", "1").strip().lower() \
        not in ("0", "false", "off")


_lock = threading.Lock()
_local = threading.local()
_enabled = _telemetry_env_enabled()
#: span path -> its durations in seconds
_stats: Dict[str, BucketHistogram] = {}


def set_spans_enabled(flag: bool) -> None:
    """Globally enable/disable span aggregation (elapsed still works)."""
    global _enabled
    _enabled = bool(flag)


def spans_enabled() -> bool:
    return _enabled


def _stack() -> List[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class Span:
    """Context manager timing one region; reusable objects are cheap."""

    __slots__ = ("name", "path", "_start", "elapsed")

    def __init__(self, name: str) -> None:
        self.name = name
        self.path = name
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        if _enabled:
            stack = _stack()
            self.path = f"{stack[-1]}/{self.name}" if stack else self.name
            stack.append(self.path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        if _enabled:
            stack = _stack()
            if stack and stack[-1] == self.path:
                stack.pop()
            with _lock:
                stats = _stats.get(self.path)
                if stats is None:
                    stats = _stats[self.path] = BucketHistogram()
                stats.observe(self.elapsed)


def span(name: str) -> Span:
    """Open a (nestable) timed span named ``name``."""
    return Span(name)


def span_snapshot() -> List[dict]:
    """Aggregated stats per span path, sorted by path.

    Schema per row: ``{"type": "span", "name", "count", "total_seconds",
    "p50_seconds", "p95_seconds"}`` — the same rows the JSONL exporter
    writes.
    """
    with _lock:
        return [{"type": "span", "name": path, "count": stats.count,
                 "total_seconds": stats.sum,
                 "p50_seconds": stats.quantile(50.0),
                 "p95_seconds": stats.quantile(95.0)}
                for path, stats in sorted(_stats.items())]


def reset_spans() -> None:
    """Drop all aggregated span stats (the nesting stack is untouched)."""
    with _lock:
        _stats.clear()


def format_profile() -> str:
    """The live aggregate as an indented tree, heaviest siblings first
    (:func:`repro.obs.report.format_span_table`); ``""`` when nothing
    was recorded, so callers can skip the header for unprofiled runs."""
    return format_span_table(span_snapshot())
