"""OpenMetrics / Prometheus text exposition of the metrics registry.

Renders the same rows the JSONL exporter writes — counters, gauges,
histograms and span aggregates — in the text format a Prometheus scrape
(or ``promtool check metrics``) understands, so ``repro serve
--metrics-out run.jsonl`` can drop a scrape-ready ``run.prom`` snapshot
alongside the JSONL without any client library:

* counter ``cache.hit`` → ``repro_cache_hit_total 3``
* gauge ``train.pairs_per_sec`` → ``repro_train_pairs_per_sec 812.4``
* histogram rows → a classic *histogram* family: cumulative
  ``_bucket{le="..."}`` samples from the row's ``buckets`` payload,
  ending at ``le="+Inf"`` (always equal to ``_count``), plus
  ``_count``/``_sum``
* a histogram row without ``buckets`` (files written before every
  registry histogram carried them) → a *summary* family:
  ``{quantile="0.5"|"0.95"}`` samples plus ``_count`` / ``_sum``
* span rows → one shared ``repro_span_seconds`` summary family with a
  ``span="fit/epoch"`` label per path

Any row may additionally carry a ``labels`` dict (``{"shard": "2"}``);
its pairs are merged into every sample the row produces — how a fleet
scrape through the router keeps per-shard gauges and histograms apart
in one exposition (DESIGN.md §15).

Dotted names are sanitised to ``[a-zA-Z0-9_:]`` and prefixed; label
values are escaped per the exposition format.  Trace rows are *not*
rendered — per-request trees are unbounded-cardinality and belong in
the JSONL/`repro obs report` path, not a scrape.  The output ends with
``# EOF`` (the OpenMetrics terminator, which Prometheus' text parser
also accepts as a comment).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry, registry
from .spans import span_snapshot

__all__ = ["render_openmetrics", "export_prom"]

_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str) -> str:
    cleaned = _BAD_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _fmt(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _row_labels(row: dict) -> str:
    """The row's own ``labels`` dict as ``k="v"`` pairs (sorted), or
    ``""`` — merged into every sample the row emits."""
    labels = row.get("labels")
    if not labels:
        return ""
    return ",".join(
        f'{_BAD_CHARS.sub("_", str(key))}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items()))


def _braced(*parts: str) -> str:
    """``{a,b}`` from the non-empty label fragments, or ``""``."""
    joined = ",".join(part for part in parts if part)
    return f"{{{joined}}}" if joined else ""


def render_openmetrics(rows: Iterable[dict], prefix: str = "repro") -> str:
    """Render exporter-schema ``rows`` as OpenMetrics text.

    Families are emitted sorted by name (deterministic diffs); every
    span row joins the single ``{prefix}_span_seconds`` family.
    """
    # family name -> (type, [sample lines])
    families: Dict[str, Tuple[str, List[str]]] = {}

    def family(name: str, kind: str) -> List[str]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = (kind, [])
        return entry[1]

    span_family = f"{prefix}_span_seconds" if prefix else "span_seconds"
    quantile_50 = 'quantile="0.5"'
    quantile_95 = 'quantile="0.95"'
    for row in rows:
        kind = row.get("type")
        extra = _row_labels(row)
        if kind == "counter":
            name = _metric_name(row["name"], prefix)
            # the exposition format appends _total itself; strip an
            # existing suffix so serve.requests_total doesn't double up
            if name.endswith("_total"):
                name = name[:-len("_total")]
            family(name, "counter").append(
                f"{name}_total{_braced(extra)} {_fmt(row['value'])}")
        elif kind == "gauge":
            name = _metric_name(row["name"], prefix)
            family(name, "gauge").append(
                f"{name}{_braced(extra)} {_fmt(row['value'])}")
        elif kind == "histogram":
            name = _metric_name(row["name"], prefix)
            buckets = row.get("buckets")
            if buckets:
                lines = family(name, "histogram")
                running = 0
                for bound, count in zip(buckets["bounds"],
                                        buckets["counts"]):
                    running += int(count)
                    le = f'le="{_fmt(bound)}"'
                    lines.append(f"{name}_bucket{_braced(extra, le)} "
                                 f"{running}")
                # the +Inf bucket is total count by construction — the
                # overflow slot is the last entry of ``counts``
                inf = 'le="+Inf"'
                lines.append(f"{name}_bucket{_braced(extra, inf)} "
                             f"{_fmt(row['count'])}")
                lines.append(f"{name}_count{_braced(extra)} "
                             f"{_fmt(row['count'])}")
                lines.append(f"{name}_sum{_braced(extra)} "
                             f"{_fmt(row['sum'])}")
            else:
                lines = family(name, "summary")
                lines.append(f"{name}{_braced(extra, quantile_50)} "
                             f"{_fmt(row['p50'])}")
                lines.append(f"{name}{_braced(extra, quantile_95)} "
                             f"{_fmt(row['p95'])}")
                lines.append(f"{name}_count{_braced(extra)} "
                             f"{_fmt(row['count'])}")
                lines.append(f"{name}_sum{_braced(extra)} "
                             f"{_fmt(row['sum'])}")
        elif kind == "span":
            label = f'span="{_escape_label(row["name"])}"'
            lines = family(span_family, "summary")
            lines.append(f"{span_family}"
                         f"{_braced(extra, label, quantile_50)} "
                         f"{_fmt(row['p50_seconds'])}")
            lines.append(f"{span_family}"
                         f"{_braced(extra, label, quantile_95)} "
                         f"{_fmt(row['p95_seconds'])}")
            lines.append(f"{span_family}_count{_braced(extra, label)} "
                         f"{_fmt(row['count'])}")
            lines.append(f"{span_family}_sum{_braced(extra, label)} "
                         f"{_fmt(row['total_seconds'])}")
        # meta / trace rows are deliberately not scrape material

    out: List[str] = []
    for name in sorted(families):
        kind, lines = families[name]
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    out.append("# EOF")
    return "\n".join(out) + "\n"


def export_prom(path, reg: Optional[MetricsRegistry] = None,
                include_spans: bool = True,
                prefix: str = "repro") -> Path:
    """Atomically write an OpenMetrics snapshot of the registry
    (default: process-wide) to ``path``; returns the path."""
    from ..iosafe import atomic_write_bytes  # late: iosafe imports repro.obs

    reg = reg if reg is not None else registry()
    rows: List[dict] = list(reg.snapshot())
    if include_spans:
        rows.extend(span_snapshot())
    text = render_openmetrics(rows, prefix=prefix)
    return atomic_write_bytes(Path(path), text.encode("utf-8"))
