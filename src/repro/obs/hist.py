"""Fixed-bucket log-scale histograms: exact, mergeable, tail-honest.

Every distribution the process records — each registry histogram
(:class:`repro.obs.metrics.Histogram`) and each span path's durations
(:mod:`repro.obs.spans`) — is a :class:`BucketHistogram` over one
layout, :data:`DEFAULT_BOUNDS`.  The bucket boundaries are fixed up
front (log-scale, so relative error is uniform across decades) and
every observation lands in exactly one bucket counter:

* **exact counts** — no sampling, so nothing is lost in the tail: a
  quantile is wrong by at most one bucket's relative width (~21 % at
  12 buckets/decade), never by sampling luck;
* **mergeable** — two histograms over the same boundaries add
  bucket-wise, so per-shard or per-sweep-point results combine into
  one distribution without re-observing anything;
* **bounded memory** — 158 integers per distribution, regardless of
  how many observations arrive.

The one layout spans 1e-6 .. 1e7, which covers latencies in
milliseconds, span durations in seconds, losses and partition sizes
alike.  A value at or below 1e-6 (zero and negatives included) lands
in the first bucket and a value above 1e7 in the ``+Inf`` overflow
slot; count, sum, min and max stay exact either way, and quantiles are
clamped to the observed [min, max].

Instances are *not* internally locked; callers that share one across
threads synchronise around it (``repro.obs.metrics.Histogram`` and the
span aggregator do, and the load harness records under its own lock).
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence

__all__ = ["BucketHistogram", "log_bounds", "DEFAULT_BOUNDS"]


def log_bounds(lo: float, hi: float, per_decade: int = 12) -> List[float]:
    """Geometric bucket upper bounds from ``lo`` until ``hi`` is covered.

    ``per_decade`` buckets per factor of 10 keeps the relative width of
    every bucket at ``10**(1/per_decade)`` (≈1.21 for the default), so a
    quantile read from the histogram is off by at most that factor.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log-scale bounds")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    count = int(math.ceil(per_decade * math.log10(hi / lo))) + 1
    return [lo * 10.0 ** (i / per_decade) for i in range(count)]


#: the one layout every process records into: 1e-6 .. 1e7 at 12
#: buckets/decade (157 bounds)
DEFAULT_BOUNDS: Sequence[float] = tuple(log_bounds(1e-6, 1e7, per_decade=12))


class BucketHistogram:
    """Exact counts over fixed bucket boundaries, plus count/sum/min/max.

    ``bounds`` are ascending bucket *upper* edges; an implicit overflow
    bucket (``+Inf``) catches everything above the last edge, so no
    observation is ever dropped.  ``bounds`` defaults to
    :data:`DEFAULT_BOUNDS`; readers pass the layout a payload carries.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        if bounds is None:
            bounds = DEFAULT_BOUNDS
        bounds = [float(b) for b in bounds]
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self.bounds: List[float] = bounds
        #: one slot per bound plus the +Inf overflow slot
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "BucketHistogram") -> None:
        """Add ``other``'s distribution into this one (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def delta_from(self, older: "BucketHistogram") -> "BucketHistogram":
        """The distribution observed *between* two cumulative snapshots
        of the same instrument (same bounds; ``older`` taken first) —
        how a live scraper turns two point-in-time scrapes into the
        window's latency distribution.

        The window's true min/max are unrecoverable from cumulative
        extrema, so they are bounded by the occupied buckets' edges
        (keeping :meth:`quantile`'s clamping sane) — a quantile read off
        the delta is still wrong by at most one bucket width.
        """
        if older.bounds != self.bounds:
            raise ValueError("cannot delta histograms with different "
                             "bucket bounds")
        counts = [a - b for a, b in zip(self.counts, older.counts)]
        if self.count < older.count or any(c < 0 for c in counts):
            raise ValueError("newer snapshot is behind the older one "
                             "(instrument was reset between scrapes?)")
        delta = BucketHistogram(self.bounds)
        delta.counts = counts
        delta.count = self.count - older.count
        delta.sum = self.sum - older.sum
        occupied = [i for i, c in enumerate(counts) if c]
        if occupied:
            delta.min = 0.0 if occupied[0] == 0 \
                else self.bounds[occupied[0] - 1]
            delta.max = self.max if occupied[-1] >= len(self.bounds) \
                else self.bounds[occupied[-1]]
        return delta

    def cumulative(self) -> List[tuple]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``
        — the classic Prometheus ``le`` bucket series."""
        out = []
        running = 0
        for bound, c in zip(self.bounds, self.counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (q in [0, 100]), interpolated inside
        the bucket that holds the target rank and clamped to the exact
        observed [min, max]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        running = 0.0
        lo = 0.0
        for bound, c in zip(self.bounds, self.counts):
            if c and running + c >= rank:
                fraction = (rank - running) / c
                value = lo + fraction * (bound - lo)
                return min(max(value, self.min), self.max)
            running += c
            lo = bound
        return self.max  # target rank lies in the +Inf overflow bucket

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def row(self, name: str) -> dict:
        """This distribution as a registry ``histogram`` row: the
        summary facets plus the exact ``buckets`` payload."""
        doc = self.to_dict()
        return {"type": "histogram", "name": name,
                "count": doc["count"], "sum": doc["sum"],
                "min": doc["min"], "max": doc["max"],
                "p50": self.quantile(50.0), "p95": self.quantile(95.0),
                "p99": self.quantile(99.0),
                "buckets": {"bounds": doc["bounds"],
                            "counts": doc["counts"]}}

    @classmethod
    def from_dict(cls, doc: dict) -> "BucketHistogram":
        hist = cls(doc["bounds"])
        counts = [int(c) for c in doc["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError("counts/bounds length mismatch")
        hist.counts = counts
        hist.count = int(doc["count"])
        hist.sum = float(doc["sum"])
        hist.min = float(doc["min"]) if hist.count else math.inf
        hist.max = float(doc["max"]) if hist.count else -math.inf
        return hist
