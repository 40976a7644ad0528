"""Live fleet scraping: fetch, aggregate, and delta metric snapshots.

The ``stats`` protocol op (DESIGN.md §15) lets any process in the fleet
answer "what do your instruments say *right now*" without stopping:
workers reply with their registry snapshot plus span aggregates, and
the router replies with an already-aggregated fleet view.  This module
is the aggregation math behind both (the one-shot scrape client is
:func:`repro.netserve.protocol.request_op` with ``"stats"``):

* :func:`aggregate_fleet` — fold per-shard snapshots into one fleet
  snapshot: counters **summed** (fleet throughput is the sum of shard
  throughputs), histograms **merged bucketwise** when bounds agree
  (exact, via :meth:`BucketHistogram.merge`; every process records
  into the one layout, so they do), and everything whose aggregate
  would lie — gauges, span families, bucketless rows from older
  exports, bucket layouts that disagree — **labeled per shard**
  (``labels: {"shard": "2"}``) so nothing is averaged into fiction.
* :func:`delta_summary` / :func:`combine_summaries` — turn two
  cumulative scrapes into the *window between them* (counter deltas,
  :meth:`BucketHistogram.delta_from` for latency quantiles) in the
  exact summary schema :func:`repro.obs.slo.evaluate_slo` judges, so
  ``repro obs slo --connect`` computes burn rate over a sliding window
  of live scrapes.  A router's scrape is judged at its front door —
  the router's own counters, since a hit never reaches a worker and a
  scattered request reaches all N of them.

Each shard's snapshot is internally consistent per instrument (rows are
read under the instrument lock) but the fleet scrape is not a
distributed cut: shards answer a few milliseconds apart.  Deltas of
cumulative counters/buckets between two scrapes of the *same* process
are exact regardless.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .hist import BucketHistogram

__all__ = ["aggregate_fleet", "delta_summary", "combine_summaries"]

#: what a delta summary reads, per door: a service (``serve.service``)
#: and a shard router.  Neither degrades: every ``ok`` is a whole answer
_SERVICE_DOOR = {"offered": "serve.requests_total",
                 "answered": "serve.ok_total",
                 "shed": "serve.error.overloaded",
                 "errors": "serve.error_total",
                 "latency": "serve.request_ms"}
_ROUTER_DOOR = {"offered": "shard.router.requests_total",
                "answered": "shard.router.ok_total",
                "shed": "shard.router.error.overloaded",
                "errors": "shard.router.error_total",
                "latency": "shard.router.request_ms"}


def _labeled(row: dict, slot: str) -> dict:
    """``row`` with ``shard=<slot>`` merged into its labels."""
    labels = dict(row.get("labels") or {})
    labels.setdefault("shard", slot)
    return dict(row, labels=labels)


def _bucket_hist(row: dict) -> BucketHistogram:
    """Rebuild the :class:`BucketHistogram` behind a metric row."""
    doc = dict(row["buckets"])
    doc.setdefault("count", row.get("count", 0))
    doc.setdefault("sum", row.get("sum", 0.0))
    doc.setdefault("min", row.get("min", 0.0))
    doc.setdefault("max", row.get("max", 0.0))
    return BucketHistogram.from_dict(doc)


def _merged_bucket_row(name: str, rows: Sequence[dict]) -> dict:
    merged = _bucket_hist(rows[0])
    for row in rows[1:]:
        merged.merge(_bucket_hist(row))
    return merged.row(name)


def aggregate_fleet(per_shard: Dict[str, Optional[dict]],
                    own_rows: Iterable[dict] = (),
                    own_spans: Iterable[dict] = ()) -> dict:
    """Fold per-shard ``stats`` payloads into one fleet payload.

    ``per_shard`` maps shard label → the shard's ``stats`` dict, or
    ``None`` for a shard that failed to answer (still counted in
    ``shards.total`` so a scrape of a limping fleet says so).
    ``own_rows``/``own_spans`` are the aggregator's *own* instruments
    (router request counts and latencies), appended unlabeled —
    filtered to names the shards did not already report, so an
    in-process fleet sharing one registry never double-counts.
    """
    answered = {slot: stats for slot, stats in per_shard.items()
                if stats is not None}

    # group worker metric rows by (name, type-ish shape)
    counters: Dict[str, float] = {}
    bucket_rows: Dict[str, List[Tuple[str, dict]]] = {}
    labeled: List[dict] = []
    spans: List[dict] = []
    for slot in sorted(answered):
        stats = answered[slot]
        for row in stats.get("metrics", ()):
            kind = row.get("type")
            if kind == "counter":
                counters[row["name"]] = counters.get(row["name"], 0) \
                    + row.get("value", 0)
            elif kind == "histogram" and row.get("buckets"):
                bucket_rows.setdefault(row["name"], []) \
                    .append((slot, row))
            else:  # gauges and bucketless histograms: label, don't merge
                labeled.append(_labeled(row, slot))
        for row in stats.get("spans", ()):
            spans.append(_labeled(row, slot))

    metrics: List[dict] = [
        {"type": "counter", "name": name, "value": value}
        for name, value in counters.items()]
    for name, slot_rows in bucket_rows.items():
        bounds = slot_rows[0][1]["buckets"]["bounds"]
        if all(row["buckets"]["bounds"] == bounds
               for _, row in slot_rows[1:]):
            metrics.append(_merged_bucket_row(
                name, [row for _, row in slot_rows]))
        else:  # layouts disagree: per-shard truth beats a wrong merge
            metrics.extend(_labeled(row, slot) for slot, row in slot_rows)

    seen = {row["name"] for row in metrics}
    seen.update(row["name"] for row in labeled)
    metrics.extend(row for row in own_rows if row["name"] not in seen)
    span_seen = {row["name"] for row in spans}
    spans.extend(row for row in own_spans
                 if row["name"] not in span_seen)

    metrics.sort(key=lambda row: (row["name"],
                                  (row.get("labels") or {}).get("shard",
                                                                "")))
    labeled.sort(key=lambda row: (row["name"], row["labels"]["shard"]))
    spans.sort(key=lambda row: (row["name"],
                                (row.get("labels") or {}).get("shard", "")))
    captured = [stats.get("captured_unix") for stats in answered.values()
                if isinstance(stats.get("captured_unix"), (int, float))]
    return {
        "metrics": metrics + labeled,
        "spans": spans,
        "shards": {"total": len(per_shard), "answered": len(answered)},
        "per_shard": {slot: per_shard[slot] for slot in sorted(per_shard)},
        "captured_unix": max(captured) if captured else None,
    }


def _row_map(rows: Iterable[dict]) -> Dict[str, dict]:
    # unlabeled rows only: labeled rows are per-shard facets, and a
    # delta across the whole fleet reads the aggregated families
    return {row["name"]: row for row in rows if not row.get("labels")}


def _counter_delta(before: Dict[str, dict], after: Dict[str, dict],
                   name: str) -> int:
    older = before.get(name, {}).get("value", 0)
    newer = after.get(name, {}).get("value", 0)
    return max(0, int(newer) - int(older))


def delta_summary(before_rows: Iterable[dict],
                  after_rows: Iterable[dict], *,
                  router: bool = False) -> dict:
    """The window between two cumulative scrapes, as an SLO summary.

    ``before_rows``/``after_rows`` are the ``metrics`` lists of two
    scrapes of the same process or fleet (older first).  ``router``
    judges a router's scrape (its payload carries ``shards``) by the
    router's own ``shard.router.*`` counters — the front door — not by
    the workers' ``serve.*`` sums, which miss hits and count a
    scattered request once per shard.  Counter deltas give
    offered/answered/shed/errors (``degraded`` is always 0: no door
    answers degraded); :meth:`BucketHistogram.delta_from`
    on the door's latency histogram gives the window's quantiles
    (``None`` when the metric is missing or its row carries no buckets —
    evaluate_slo then fails latency objectives loudly rather than
    judging stale numbers).
    """
    door = _ROUTER_DOOR if router else _SERVICE_DOOR
    before = _row_map(before_rows)
    after = _row_map(after_rows)
    offered = _counter_delta(before, after, door["offered"])
    answered = _counter_delta(before, after, door["answered"])
    shed = _counter_delta(before, after, door["shed"])
    errors = _counter_delta(before, after, door["errors"])

    p50 = p95 = p99 = None
    latency_buckets = None
    older_row = before.get(door["latency"])
    newer_row = after.get(door["latency"])
    if newer_row is not None and newer_row.get("buckets"):
        if older_row is not None and older_row.get("buckets"):
            older = _bucket_hist(older_row)
        else:
            # cumulative instrument absent from the older scrape: the
            # process had simply observed nothing yet — delta from zero
            older = BucketHistogram(newer_row["buckets"]["bounds"])
        delta = _bucket_hist(newer_row).delta_from(older)
        if delta.count:
            p50 = delta.quantile(50.0)
            p95 = delta.quantile(95.0)
            p99 = delta.quantile(99.0)
        latency_buckets = delta.to_dict()

    return {
        "offered": offered,
        "answered": answered,
        "ok": answered,
        "degraded": 0,
        "shed": shed,
        "errors": errors,
        "availability": (answered / offered) if offered else None,
        "degraded_fraction": 0.0 if offered else None,
        "shed_fraction": (shed / offered) if offered else None,
        "p50_ms": p50, "p95_ms": p95, "p99_ms": p99,
        "latency_buckets": latency_buckets,
    }


def combine_summaries(summaries: Sequence[dict]) -> dict:
    """Fold consecutive :func:`delta_summary` windows into one — the
    sliding-window view live SLO judging burns down against."""
    if not summaries:
        raise ValueError("need at least one window summary")
    offered = sum(s.get("offered", 0) for s in summaries)
    ok = sum(s.get("ok", 0) for s in summaries)
    degraded = sum(s.get("degraded", 0) for s in summaries)
    shed = sum(s.get("shed", 0) for s in summaries)
    errors = sum(s.get("errors", 0) for s in summaries)
    answered = ok + degraded

    merged: Optional[BucketHistogram] = None
    for summary in summaries:
        doc = summary.get("latency_buckets")
        if not doc:
            continue
        hist = BucketHistogram.from_dict(doc)
        if merged is None:
            merged = hist
        else:
            merged.merge(hist)
    p50 = p95 = p99 = None
    if merged is not None and merged.count:
        p50 = merged.quantile(50.0)
        p95 = merged.quantile(95.0)
        p99 = merged.quantile(99.0)

    return {
        "offered": offered,
        "answered": answered,
        "ok": ok,
        "degraded": degraded,
        "shed": shed,
        "errors": errors,
        "availability": (answered / offered) if offered else None,
        "degraded_fraction": (degraded / offered) if offered else None,
        "shed_fraction": (shed / offered) if offered else None,
        "p50_ms": p50, "p95_ms": p95, "p99_ms": p99,
        "latency_buckets": merged.to_dict() if merged is not None else None,
    }
