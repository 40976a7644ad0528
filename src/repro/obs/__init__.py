"""Observability: logging, spans, metrics, request traces, exposition.

One small subsystem gives the whole reproduction a common telemetry
vocabulary:

* :mod:`repro.obs.log` — structured key=value logging, controlled by
  ``REPRO_LOG_LEVEL`` or :func:`configure_logging`.
* :mod:`repro.obs.spans` — nestable wall-time spans aggregated into a
  hierarchical profile (``with span("fit/epoch"): ...``).
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms; every histogram and every span path counts
  into one fixed log-bucket layout (:mod:`repro.obs.hist`).
* :mod:`repro.obs.slo` / :mod:`repro.obs.frontier` — declarative SLO
  specs evaluated against load-run summaries, and latency/throughput
  frontier sweeps with a CI-gateable knee artifact.
* :mod:`repro.obs.trace` — request-scoped traces: a span *tree* with
  typed events per request, head-sampled into a bounded recorder, with
  cross-thread context propagation for pooled work.
* :mod:`repro.obs.export` — atomic JSONL export of metrics + span
  profiles + sampled traces so runs and CI can be diffed.
* :mod:`repro.obs.promtext` — OpenMetrics/Prometheus text rendering of
  the same rows (scrape-ready ``.prom`` snapshots).
* :mod:`repro.obs.scrape` — live fleet scraping over the ``stats``
  protocol op: fetch, per-shard aggregation (sum / merge / label),
  scrape-delta SLO summaries (DESIGN.md §15).
* :mod:`repro.obs.report` / :mod:`repro.obs.diff` — the analysis layer
  behind ``repro obs report`` and ``repro obs diff``.

Everything is dependency-free and safe to import from any module; none
of it changes numeric results.  The disabled paths (log level ``off``,
:func:`set_spans_enabled(False) <set_spans_enabled>`,
:func:`set_tracing_enabled(False) <set_tracing_enabled>` — all three
via ``REPRO_TELEMETRY=0``) reduce to an integer comparison, two clock
reads, respectively one thread-local read per call site; no recorder
lock is ever taken while tracing is disabled.
"""

from .export import export_jsonl, read_jsonl
from .frontier import (detect_knee, format_frontier, frontier_rows,
                       load_frontier, save_frontier, sweep_frontier)
from .hist import BucketHistogram, log_bounds
from .log import Logger, configure as configure_logging, get_logger, level_name
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry, registry)
from .promtext import export_prom, render_openmetrics
from .scrape import aggregate_fleet, combine_summaries, delta_summary
from .slo import (ObjectiveResult, SLOResult, SLOSpec, evaluate_slo,
                  format_slo, load_spec)
from .spans import (format_profile, reset_spans, set_spans_enabled, span,
                    span_snapshot, spans_enabled)
from .trace import (SamplePolicy, Trace, TraceRecorder, Tracer,
                    activate_context, add_trace_event, capture_context,
                    current_trace, flag_trace, set_tracing_enabled,
                    shift_span_row, trace_recorder, trace_span, tracer,
                    tracing_enabled)

__all__ = [
    "Logger", "configure_logging", "get_logger", "level_name",
    "span", "span_snapshot", "format_profile", "reset_spans",
    "set_spans_enabled", "spans_enabled",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "registry",
    "BucketHistogram", "log_bounds",
    "SLOSpec", "SLOResult", "ObjectiveResult", "evaluate_slo",
    "format_slo", "load_spec",
    "sweep_frontier", "detect_knee", "frontier_rows",
    "save_frontier", "load_frontier", "format_frontier",
    "export_jsonl", "read_jsonl",
    "export_prom", "render_openmetrics",
    "SamplePolicy", "Trace", "TraceRecorder", "Tracer",
    "trace_recorder", "tracer", "set_tracing_enabled", "tracing_enabled",
    "current_trace", "trace_span", "add_trace_event", "flag_trace",
    "capture_context", "activate_context", "shift_span_row",
    "aggregate_fleet", "delta_summary", "combine_summaries",
]
