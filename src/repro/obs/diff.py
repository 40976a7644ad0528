"""Diff two metric exports, with regression thresholds for CI gating.

``repro obs diff old.jsonl new.jsonl`` flattens every instrument of two
exports into scalar series (histograms and spans contribute their
``count``/``sum``/``p50``/``p95`` facets), prints the per-instrument
delta, and exits non-zero when a *watched* metric regressed past the
threshold — so a serve smoke or benchmark run can gate a build on its
own telemetry.

Two input formats are accepted per side:

* an exporter JSONL file (``--metrics-out`` output, any schema version);
* a ``bench_hotpaths.py`` JSON report (``BENCH_hotpaths.json`` or the
  committed quick baseline): its ``paths.<name>.{optimized_s,...}``
  entries become synthetic gauges named ``bench.<name>.<field>``, so the
  committed benchmark baseline works directly as the "old" side;
* a frontier artifact (``repro load sweep --output``, detected by its
  ``repro.frontier/1`` schema): the knee and per-point summaries become
  ``frontier.*`` gauges — notably ``frontier.knee.interarrival_ms``,
  time-shaped so a capacity loss trips the default watch like any
  latency regression.

A regression is: the metric matches a watch pattern (default: the
time-shaped names ``*seconds*``, ``*_s``, ``*_ms``, ``*.p50``,
``*.p95``, ``*duration*`` — where bigger is worse), it *increased*, the
relative increase exceeds ``threshold_pct`` **and** the absolute
increase exceeds ``min_delta`` (micro-benchmark noise floor).
"""

from __future__ import annotations

import dataclasses
import json
import math
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .export import read_jsonl

__all__ = ["DEFAULT_WATCH", "DiffEntry", "load_rows", "flatten_rows",
           "diff_rows", "find_regressions", "format_diff"]

#: metric-name globs where an increase is a regression by default
DEFAULT_WATCH = ("*seconds*", "*_s", "*_ms", "*.p50", "*.p95", "*duration*")


@dataclasses.dataclass(frozen=True)
class DiffEntry:
    """One metric compared across the two exports."""

    name: str
    old: Optional[float]
    new: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        return self.new - self.old

    @property
    def pct(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        if self.old == 0.0:
            return math.inf if self.new != 0.0 else 0.0
        return (self.new - self.old) / abs(self.old) * 100.0


def _rows_from_bench(doc: dict) -> List[dict]:
    """Synthetic gauge rows from a ``bench_hotpaths.py`` report."""
    rows: List[dict] = []
    for path_name, entry in sorted(doc.get("paths", {}).items()):
        for field, value in sorted(entry.items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows.append({"type": "gauge",
                             "name": f"bench.{path_name}.{field}",
                             "value": float(value)})
    return rows


def load_rows(path) -> List[dict]:
    """Exporter rows from ``path`` — a metrics JSONL file, a
    ``bench_hotpaths.py`` JSON report (detected by its ``paths`` key),
    or a frontier artifact (detected by its schema)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            from .frontier import frontier_rows, is_frontier_doc

            if is_frontier_doc(doc):
                return frontier_rows(doc)
            if "paths" in doc:
                return _rows_from_bench(doc)
    return read_jsonl(path)


def flatten_rows(rows: Iterable[dict]) -> Dict[str, float]:
    """Every instrument as scalar series keyed by dotted name."""
    flat: Dict[str, float] = {}
    for row in rows:
        kind = row.get("type")
        name = row.get("name")
        if kind in ("counter", "gauge"):
            flat[name] = float(row["value"])
        elif kind == "histogram":
            for field in ("count", "sum", "p50", "p95"):
                flat[f"{name}.{field}"] = float(row[field])
            # rows written before every histogram carried buckets
            # have no p99 facet
            if "p99" in row:
                flat[f"{name}.p99"] = float(row["p99"])
        elif kind == "span":
            flat[f"{name}.count"] = float(row["count"])
            flat[f"{name}.total_seconds"] = float(row["total_seconds"])
            flat[f"{name}.p50"] = float(row["p50_seconds"])
            flat[f"{name}.p95"] = float(row["p95_seconds"])
        # meta and trace rows carry no diffable scalars
    return flat


def diff_rows(old_rows: Iterable[dict],
              new_rows: Iterable[dict]) -> List[DiffEntry]:
    """Compare two row sets; metrics present on one side only appear
    with ``None`` on the other (never a regression, always visible)."""
    old_flat = flatten_rows(old_rows)
    new_flat = flatten_rows(new_rows)
    names = sorted(set(old_flat) | set(new_flat))
    return [DiffEntry(name, old_flat.get(name), new_flat.get(name))
            for name in names]


def find_regressions(entries: Sequence[DiffEntry], *,
                     threshold_pct: float = 25.0,
                     min_delta: float = 0.0,
                     watch: Sequence[str] = DEFAULT_WATCH) -> List[DiffEntry]:
    """The entries that breach the regression policy (see module doc)."""
    breaches = []
    for entry in entries:
        if entry.delta is None or entry.delta <= 0:
            continue
        if not any(fnmatch(entry.name, pattern) for pattern in watch):
            continue
        if entry.delta < min_delta:
            continue
        pct = entry.pct
        if pct is not None and pct > threshold_pct:
            breaches.append(entry)
    return breaches


def _fmt_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


def format_diff(entries: Sequence[DiffEntry],
                regressions: Sequence[DiffEntry] = (), *,
                changed_only: bool = False) -> str:
    """Aligned per-metric delta table; regressions are marked ``!``."""
    breached = {entry.name for entry in regressions}
    lines = [f"{'':1s} {'metric':44s} {'old':>12s} {'new':>12s} "
             f"{'delta':>12s} {'pct':>9s}"]
    for entry in entries:
        if changed_only and (entry.delta is None or entry.delta == 0.0):
            if entry.old is not None and entry.new is not None:
                continue
        pct = entry.pct
        pct_text = "-" if pct is None else (
            "inf" if math.isinf(pct) else f"{pct:+.1f}%")
        marker = "!" if entry.name in breached else " "
        lines.append(f"{marker} {entry.name:44s} {_fmt_value(entry.old):>12s} "
                     f"{_fmt_value(entry.new):>12s} "
                     f"{_fmt_value(entry.delta):>12s} {pct_text:>9s}")
    return "\n".join(lines)
