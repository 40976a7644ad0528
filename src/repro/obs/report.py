"""Human-readable report over an exported metrics/trace JSONL file.

``repro obs report run.jsonl`` renders three views of one export:

* the aggregate span profile as an indented flame-style table
  (per-path count / total / p50 / p95, children under parents, heaviest
  siblings first) — the process-wide "where does time go";
* the top-N slowest sampled traces, each as its span tree with typed
  events (breaker transitions, deadline checks, cache hits, sheds)
  interleaved in causal (timestamp) order — the per-request "where did
  *this* request's time go";
* every histogram row that carries a ``buckets`` payload (all of them
  since the registry has one bucket layout; files written earlier may
  hold bucketless rows, which are skipped) as ASCII bar charts with
  exact per-bucket counts.

Everything renders from the exported rows alone, so reports work on any
machine the JSONL lands on, long after the serving process is gone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["format_span_table", "format_bucket_histogram", "format_trace",
           "format_report"]


def format_span_table(rows: Iterable[dict]) -> str:
    """The aggregate span rows as an indented tree, heaviest siblings
    first — from exported rows or the live
    :func:`repro.obs.spans.span_snapshot`; ``""`` when there are none."""
    by_path = {row["name"]: row for row in rows if row.get("type") == "span"}
    if not by_path:
        return ""
    children: Dict[Optional[str], List[str]] = {}
    for path in by_path:
        parent = path.rsplit("/", 1)[0] if "/" in path else None
        if parent is not None and parent not in by_path:
            parent = None  # orphaned path: show at top level
        children.setdefault(parent, []).append(path)

    lines = [f"{'span':40s} {'count':>7s} {'total':>9s} "
             f"{'p50':>9s} {'p95':>9s}"]

    def emit(path: str, depth: int) -> None:
        row = by_path[path]
        label = "  " * depth + path.rsplit("/", 1)[-1]
        lines.append(f"{label:40s} {row['count']:7d} "
                     f"{row['total_seconds']:8.3f}s "
                     f"{row['p50_seconds']:8.4f}s "
                     f"{row['p95_seconds']:8.4f}s")
        for child in sorted(children.get(path, []),
                            key=lambda p: -by_path[p]["total_seconds"]):
            emit(child, depth + 1)

    for top in sorted(children.get(None, []),
                      key=lambda p: -by_path[p]["total_seconds"]):
        emit(top, 0)
    return "\n".join(lines)


def format_bucket_histogram(row: dict, *, width: int = 40) -> str:
    """One histogram row's ``buckets`` payload as an ASCII bar chart.

    Empty leading/trailing buckets are trimmed; each kept bucket shows
    its upper bound, exact count, and a bar scaled to the modal bucket.
    """
    payload = row.get("buckets") or {}
    bounds = list(payload.get("bounds", ()))
    counts = list(payload.get("counts", ()))
    header = (f"{row['name']}  count={row['count']} "
              f"sum={row['sum']:.6g} p50={row.get('p50', 0.0):.6g} "
              f"p95={row.get('p95', 0.0):.6g} p99={row.get('p99', 0.0):.6g}")
    occupied = [index for index, count in enumerate(counts) if count]
    if not occupied:
        return header + "\n  (empty)"
    first, last = occupied[0], occupied[-1]
    peak = max(counts[first:last + 1])
    lines = [header]
    for index in range(first, last + 1):
        bound = "+Inf" if index >= len(bounds) else f"{bounds[index]:.4g}"
        bar = "#" * max(1 if counts[index] else 0,
                        round(counts[index] / peak * width))
        lines.append(f"  le {bound:>10s} {counts[index]:>8d} {bar}")
    return "\n".join(lines)


def _format_attrs(attrs: dict) -> str:
    return " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))


def _emit_span(span: dict, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    # subtrees grafted from another process carry a "process" marker
    # (DESIGN.md §15) — surface the boundary in the rendered timeline
    name = span["name"]
    if span.get("process"):
        name = f"[{span['process']}] {name}"
    lines.append(f"{indent}{name:{max(1, 42 - len(indent))}s} "
                 f"@{span['start_ms']:8.2f}ms "
                 f"+{span['duration_ms']:8.2f}ms")
    # Children and events share one causal timeline inside their parent:
    # merge them by timestamp so e.g. a breaker transition prints before
    # the tier span it caused to be skipped.
    timeline = [("span", child["start_ms"], child)
                for child in span.get("children", ())]
    timeline += [("event", event["at_ms"], event)
                 for event in span.get("events", ())]
    timeline.sort(key=lambda item: item[1])
    for kind, _, item in timeline:
        if kind == "span":
            _emit_span(item, depth + 1, lines)
        else:
            attrs = _format_attrs(item.get("attrs", {}))
            lines.append(f"{'  ' * (depth + 1)}* {item['kind']}"
                         f"{' ' + attrs if attrs else '':s} "
                         f"@{item['at_ms']:.2f}ms")


def format_trace(trace: dict) -> str:
    """One trace row as an indented span tree with its event timeline."""
    flags = ",".join(trace.get("flags", ())) or "-"
    lines = [f"trace {trace['trace_id']}  {trace.get('name', 'request')}  "
             f"{trace['duration_ms']:.2f}ms  flags={flags}  "
             f"sampled={trace.get('sampled', 'head')}"]
    _emit_span(trace["spans"], 1, lines)
    return "\n".join(lines)


def format_report(rows: Sequence[dict], top: int = 5) -> str:
    """The full report: meta header, span table, slowest traces."""
    sections: List[str] = []
    meta = next((row for row in rows if row.get("type") == "meta"), None)
    if meta is not None:
        detail = " ".join(f"{key}={meta[key]}" for key in sorted(meta)
                          if key not in ("type",))
        sections.append(f"export {detail}")
    table = format_span_table(rows)
    if table:
        sections.append("== span profile ==\n" + table)
    bucket_rows = [row for row in rows
                   if row.get("type") == "histogram" and row.get("buckets")]
    if bucket_rows:
        body = "\n\n".join(format_bucket_histogram(row)
                           for row in bucket_rows)
        sections.append("== histograms ==\n" + body)
    traces = [row for row in rows if row.get("type") == "trace"]
    if traces:
        slowest = sorted(traces, key=lambda t: -t["duration_ms"])[:top]
        body = "\n\n".join(format_trace(trace) for trace in slowest)
        sections.append(f"== slowest traces ({len(slowest)} of "
                        f"{len(traces)} sampled) ==\n" + body)
    if not sections:
        return "nothing to report: export holds no spans or traces"
    return "\n\n".join(sections)
