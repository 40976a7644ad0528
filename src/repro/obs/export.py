"""JSONL export of metrics, span profiles and sampled traces.

One line per record.  The first line is a ``meta`` header; every other
line is a registry instrument row, a span row, or (schema v2) a sampled
request trace::

    {"type": "meta", "schema_version": 3, "created_unix": ..., ...}
    {"type": "counter", "name": "cache.hit", "value": 3}
    {"type": "gauge", "name": "train.pairs_per_sec", "value": 812.4}
    {"type": "histogram", "name": "train.epoch_loss", "count": 10,
     "sum": ..., "min": ..., "max": ..., "p50": ..., "p95": ...,
     "p99": ..., "buckets": {"bounds": [...], "counts": [...]}}
    {"type": "span", "name": "fit/epoch", "count": 10,
     "total_seconds": ..., "p50_seconds": ..., "p95_seconds": ...}
    {"type": "trace", "trace_id": "...", "name": "serve.request",
     "flags": ["degraded"], "sampled": "forced", "duration_ms": ...,
     "spans": {"name": ..., "start_ms": ..., "duration_ms": ...,
               "events": [...], "children": [...]}}

JSONL rather than one JSON blob so benchmark runs can be diffed with
line-oriented tools and appended to without re-parsing.

The file is published atomically (:func:`repro.iosafe.atomic_write_bytes`):
a crash mid-export leaves the previous version or the complete new one,
never a truncated line.  :func:`read_jsonl` additionally tolerates
truncation from *other* writers — an undecodable line is skipped and
counted (``obs.read.corrupt_lines``) instead of poisoning the whole
file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional

from .metrics import MetricsRegistry, registry
from .spans import span_snapshot
from .trace import TraceRecorder, trace_recorder

__all__ = ["SCHEMA_VERSION", "export_jsonl", "read_jsonl"]

#: v2 added ``trace`` rows (request span trees); v3 adds optional
#: ``buckets`` payloads on histogram rows (bucket-backed instruments),
#: a ``p99`` facet alongside them, and ``started`` + ``request`` events
#: on trace rows so exported traces can be replayed as load schedules.
#: Older files still read fine — every addition is a new optional key.
SCHEMA_VERSION = 3


def export_jsonl(path, reg: Optional[MetricsRegistry] = None,
                 include_spans: bool = True,
                 include_traces: bool = True,
                 recorder: Optional[TraceRecorder] = None,
                 meta: Optional[dict] = None) -> int:
    """Atomically write the registry (default: process-wide), span
    profile and sampled traces to ``path``; returns the number of rows
    written (incl. the header)."""
    from ..iosafe import atomic_write_bytes  # late: iosafe imports repro.obs

    reg = reg if reg is not None else registry()
    rows: List[dict] = [{"type": "meta", "schema_version": SCHEMA_VERSION,
                         "created_unix": time.time(), **(meta or {})}]
    rows.extend(reg.snapshot())
    if include_spans:
        rows.extend(span_snapshot())
    if include_traces:
        recorder = recorder if recorder is not None else trace_recorder()
        rows.extend(recorder.snapshot())
    payload = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    atomic_write_bytes(Path(path), payload.encode("utf-8"))
    return len(rows)


def read_jsonl(path) -> List[dict]:
    """Parse a metrics JSONL file back into a list of row dicts.

    An undecodable line (a torn write from a non-atomic producer, a
    crash mid-append) is skipped rather than raised: each one increments
    the ``obs.read.corrupt_lines`` counter so silent data loss still
    shows up in telemetry.
    """
    from .log import get_logger  # late import keeps module deps one-way

    rows: List[dict] = []
    skipped = 0
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                skipped += 1
                get_logger("repro.obs.export").warning(
                    "skipping corrupt metrics line", path=str(path),
                    line=number)
    if skipped:
        registry().counter("obs.read.corrupt_lines").inc(skipped)
    return rows
