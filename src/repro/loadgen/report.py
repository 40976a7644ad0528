"""What a load run measured: outcomes, latency distributions, artifact.

The harness classifies every response into exactly one outcome off the
fields the serve layer already emits — no side channel:

* ``ok`` — ``ok: true`` and not degraded;
* ``degraded`` — answered, but tagged ``degraded: true`` (a router's
  ``partial`` answer when a shard is down);
* ``shed`` — a typed ``overloaded`` rejection from admission control;
* ``deadline`` — a typed ``deadline_exceeded`` error;
* ``error`` — any other structured error (bad request, internal);
* ``lost`` — submitted but never answered before shutdown (should be
  zero; anything else is a harness or drain bug worth seeing).

Latency is **always measured from the request's intended arrival
time** on the schedule, never from when the harness managed to send
it.  Every sample lands in a fixed-bucket log-scale
:class:`~repro.obs.hist.BucketHistogram` over the one layout (exact
counts, mergeable, nothing sampled away in the tail) — one overall,
plus one per outcome so "how slow were the degraded answers" is
answerable after the fact.

A report serialises to a JSON artifact (``repro load run --output``)
and publishes into the metrics registry (``load.*`` instruments; the
``.prom`` export carries the latency histogram as a classic ``le``
family).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from ..obs.hist import BucketHistogram

__all__ = ["OUTCOMES", "classify_response", "Sample", "LoadReport"]

REPORT_SCHEMA = "repro.loadreport/1"

OUTCOMES = ("ok", "degraded", "shed", "deadline", "error", "lost")

#: outcomes that count as "the service answered" for availability
ANSWERED = ("ok", "degraded")


def classify_response(response: dict) -> str:
    """Map one serve-layer response onto an outcome (see module doc)."""
    if response.get("ok"):
        return "degraded" if response.get("degraded") else "ok"
    code = (response.get("error") or {}).get("type")
    if code == "overloaded":
        return "shed"
    if code == "deadline_exceeded":
        return "deadline"
    return "error"


class Sample(NamedTuple):
    """One recorded request (kept in memory, not in the artifact)."""

    intended_offset: float
    outcome: str
    latency_ms: float


class LoadReport:
    """Thread-safe accumulator for one load run's measurements."""

    def __init__(self, *, meta: Optional[dict] = None) -> None:
        self.meta = dict(meta or {})
        self.latency = BucketHistogram()
        self.by_outcome: Dict[str, BucketHistogram] = {}
        self.outcomes: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self.samples: List[Sample] = []
        self.offered = 0
        self.max_lag_ms = 0.0
        self.duration_s = 0.0
        self._lock = threading.Lock()

    # -- recording (called from the injector and worker emit threads) ------
    def note_offered(self) -> None:
        with self._lock:
            self.offered += 1

    def note_lag(self, lag_seconds: float) -> None:
        """How far behind schedule the injector fell when dispatching —
        the open-loop health indicator (a large lag means the *harness*
        could not keep up, and the measurement is suspect)."""
        with self._lock:
            self.max_lag_ms = max(self.max_lag_ms, lag_seconds * 1e3)

    def record(self, intended_offset: float, outcome: str,
               latency_ms: float) -> None:
        if outcome not in self.outcomes:
            raise ValueError(f"unknown outcome {outcome!r}")
        latency_ms = max(0.0, float(latency_ms))
        with self._lock:
            self.outcomes[outcome] += 1
            self.latency.observe(latency_ms)
            hist = self.by_outcome.get(outcome)
            if hist is None:
                hist = self.by_outcome[outcome] = \
                    BucketHistogram()
            hist.observe(latency_ms)
            self.samples.append(Sample(intended_offset, outcome,
                                       latency_ms))

    def finish(self, duration_s: float) -> "LoadReport":
        with self._lock:
            self.duration_s = float(duration_s)
        return self

    # -- derived views ------------------------------------------------------
    def answered_latency(self) -> BucketHistogram:
        """The latency distribution of answered (ok + degraded)
        requests — what the SLO latency objectives are judged on."""
        merged = BucketHistogram()
        for outcome in ANSWERED:
            hist = self.by_outcome.get(outcome)
            if hist is not None:
                merged.merge(hist)
        return merged

    def summary(self) -> dict:
        """The flat dict the SLO engine and frontier sweeps consume."""
        with self._lock:
            outcomes = dict(self.outcomes)
            offered = self.offered
            duration = self.duration_s
            max_lag = self.max_lag_ms
        answered = sum(outcomes[o] for o in ANSWERED)
        latency = self.answered_latency()
        fraction = (lambda n: n / offered if offered else 0.0)
        return {
            "offered": offered,
            "answered": answered,
            "outcomes": outcomes,
            "availability": fraction(answered),
            "degraded_fraction": fraction(outcomes["degraded"]),
            "shed_fraction": fraction(outcomes["shed"]),
            "error_fraction": fraction(outcomes["error"]
                                       + outcomes["deadline"]
                                       + outcomes["lost"]),
            "duration_s": duration,
            "offered_rate": offered / duration if duration else 0.0,
            "achieved_rate": answered / duration if duration else 0.0,
            "p50_ms": latency.quantile(50.0),
            "p95_ms": latency.quantile(95.0),
            "p99_ms": latency.quantile(99.0),
            "mean_ms": latency.mean,
            "max_ms": latency.max if latency.count else 0.0,
            "max_lag_ms": max_lag,
        }

    # -- artifact & registry publication ------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "meta": self.meta,
            "summary": self.summary(),
            "latency": self.latency.to_dict(),
            "latency_by_outcome": {
                outcome: hist.to_dict()
                for outcome, hist in sorted(self.by_outcome.items())},
        }

    def save(self, path) -> Path:
        from ..iosafe import atomic_write_bytes

        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        return atomic_write_bytes(Path(path), payload.encode("utf-8"))

    def publish(self, reg=None) -> None:
        """Mirror the run into the metrics registry (``load.*``) so the
        JSONL/OpenMetrics exporters carry it with everything else."""
        from ..obs import registry

        reg = reg if reg is not None else registry()
        summary = self.summary()
        reg.counter("load.offered_total").inc(summary["offered"])
        for outcome, count in summary["outcomes"].items():
            reg.counter(f"load.outcome.{outcome}").inc(count)
        reg.gauge("load.offered_rate").set(summary["offered_rate"])
        reg.gauge("load.achieved_rate").set(summary["achieved_rate"])
        reg.gauge("load.availability").set(summary["availability"])
        reg.gauge("load.max_lag_ms").set(summary["max_lag_ms"])
        reg.histogram("load.latency_ms").merge_bucket(self.latency)
