"""A process-wide metrics registry: counters, gauges, histograms.

The registry is the single sink for quantities the reproduction wants
to report or diff across runs — cache hit rates, partition sizes,
per-epoch losses, pairs/sec.  Instruments are created on first use and
keyed by dotted name::

    from repro.obs import registry

    registry().counter("cache.corrupt").inc()
    registry().gauge("train.pairs_per_sec").set(rate)
    registry().histogram("pcp.partition_images").observe(len(images))

Every instrument takes a per-instrument lock so concurrent writers
(e.g. data-parallel workers, serve worker pools) never lose updates;
``Gauge.set`` stays last-write-wins while ``Gauge.inc``/``dec`` adjust
atomically (queue depths).  Every histogram counts into the one fixed
log-bucket layout of :mod:`repro.obs.hist`, whatever it measures.
``snapshot()`` returns plain dicts in the same schema the JSONL
exporter writes, so tests can assert on either.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from .hist import BucketHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "registry"]


class Counter:
    """Monotonically increasing count (atomic under a lock)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def row(self) -> dict:
        # read under the lock: a live scrape snapshots while writer
        # threads are mid-inc, and a torn read must never surface
        with self._lock:
            value = self._value
        return {"type": "counter", "name": self.name, "value": value}


class Gauge:
    """A point-in-time value that can move both ways.

    ``set`` is last-write-wins; ``inc``/``dec`` are atomic adjustments
    for values maintained from several threads (queue depth, in-flight
    requests, breaker state transitions).
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def row(self) -> dict:
        with self._lock:
            value = self._value
        return {"type": "gauge", "name": self.name, "value": value}


class Histogram:
    """A distribution: a :class:`~repro.obs.hist.BucketHistogram` over
    the one layout (:data:`~repro.obs.hist.DEFAULT_BOUNDS`) behind the
    instrument lock.

    Count, sum and the extrema are exact; any quantile (p99 included)
    is wrong by at most one bucket's relative width, never by sampling
    luck.  Every row carries its ``buckets`` payload, so two processes'
    rows of the same instrument merge losslessly (DESIGN.md §11).
    """

    __slots__ = ("name", "_hist", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._hist = BucketHistogram()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._hist.observe(value)

    def merge_bucket(self, other: BucketHistogram) -> None:
        """Merge a pre-aggregated :class:`BucketHistogram` (same layout)
        into this instrument — how the load harness publishes a run's
        latency distribution without replaying every sample."""
        with self._lock:
            self._hist.merge(other)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def sum(self) -> float:
        return self._hist.sum

    @property
    def mean(self) -> float:
        return self._hist.mean

    def quantile(self, q: float) -> float:
        with self._lock:
            return self._hist.quantile(q)

    def row(self) -> dict:
        with self._lock:
            return self._hist.row(self.name)


class MetricsRegistry:
    """Get-or-create home for all instruments of one process/test."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name)
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}")
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> List[dict]:
        """One schema row per instrument, sorted by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return [instrument.row() for _, instrument in instruments]

    def reset(self) -> None:
        """Drop every instrument (a fresh start per run/test)."""
        with self._lock:
            self._instruments.clear()


_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default
