"""Request-scoped tracing: one tree of timed spans per request.

The process-wide span aggregate (:mod:`repro.obs.spans`) answers "where
does time go *overall*"; it cannot answer "where did *this* request's
time go" — which is the question a slow or failed query raises.  A
:class:`Trace` carries that per-request story:

* a stable ``trace_id`` returned to the client in every response, so a
  slow answer can be looked up in the exported telemetry;
* a tree of timed spans (:class:`TraceSpan`) with typed, timestamped
  events — table hits, errors, load shedding, trace gaps — in causal
  order;
* head sampling (:class:`SamplePolicy`): a configurable keep rate drawn
  at trace start, with flagged traces (``error``, ``shed``) *always*
  retained regardless of the draw, so the interesting tail is never
  sampled away;
* a bounded in-process :class:`TraceRecorder` whose snapshot exports as
  ``{"type": "trace", ...}`` rows through the schema-v2 JSONL exporter.

Cross-*process* propagation (DESIGN.md §15): every span carries a
``span_id`` stable within its trace, and :meth:`Tracer.start` can *join*
a caller-supplied ``trace_id``/``parent_span_id`` instead of minting —
how a shard worker continues the router's trace across the wire.  The
worker ships its finished span tree back compactly
(:meth:`Trace.to_wire`); the caller re-bases the offsets with
:func:`shift_span_row` and hangs the subtree under the span that sent
the request (:meth:`Trace.graft`), yielding one causal timeline spanning
both processes.

Cross-thread propagation: the active (trace, span) context is
thread-local, so worker threads do not see it by default.  A dispatcher
captures it with :func:`capture_context` *before* handing work to a
pool, and each pooled task re-enters it with :func:`activate_context`;
spans the task opens then land under the owning request's tree, not the
worker thread's own (empty) stack.  :func:`repro.vision.pipeline.chunked_encode`
does exactly this for pooled encode chunks.

Disabled path: with ``REPRO_TELEMETRY=0`` (or
:func:`set_tracing_enabled(False) <set_tracing_enabled>`)
:meth:`Tracer.start` returns the shared :data:`NULL_TRACE`, whose every
method is a pass — no id is minted, no lock (recorder or trace) is ever
taken, and :func:`trace_span`/:func:`add_trace_event` fall through on a
single thread-local read.

Timestamps come from the tracer's injectable clock, so tests drive
whole traces on fake clocks.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
import uuid
from collections import deque
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Tuple)

from .metrics import registry
from .spans import _telemetry_env_enabled

__all__ = [
    "FLAG_ERROR", "FLAG_SHED",
    "TraceEvent", "TraceSpan", "Trace", "NULL_TRACE", "SamplePolicy",
    "TraceRecorder", "Tracer", "trace_recorder", "tracer",
    "set_tracing_enabled", "tracing_enabled",
    "current_trace", "trace_span", "add_trace_event", "flag_trace",
    "capture_context", "activate_context", "shift_span_row",
]

FLAG_ERROR = "error"
FLAG_SHED = "shed"

#: flags that force retention regardless of the head-sampling draw
FORCE_FLAGS: FrozenSet[str] = frozenset({FLAG_ERROR, FLAG_SHED})

_enabled = _telemetry_env_enabled()
_local = threading.local()


def set_tracing_enabled(flag: bool) -> None:
    """Globally enable/disable tracing (independent of span aggregation)."""
    global _enabled
    _enabled = bool(flag)


def tracing_enabled() -> bool:
    return _enabled


class TraceEvent:
    """One typed, timestamped point in a span (cache hit, shed
    decision, trace gap...)."""

    __slots__ = ("kind", "at", "attrs")

    def __init__(self, kind: str, at: float, attrs: Dict[str, object]) -> None:
        self.kind = kind
        self.at = at
        self.attrs = attrs

    def to_row(self, epoch: float) -> dict:
        row = {"kind": self.kind,
               "at_ms": round((self.at - epoch) * 1e3, 4)}
        if self.attrs:
            row["attrs"] = self.attrs
        return row


class TraceSpan:
    """One timed region of a trace; children nest, events annotate.

    ``span_id`` is stable within the owning trace (``s0`` is the root)
    so a downstream process can name this span as its parent across the
    wire.  ``grafts`` holds already-rendered span *rows* from another
    process, re-based to this trace's epoch — they render as ordinary
    children."""

    __slots__ = ("name", "start", "end", "events", "children", "span_id",
                 "grafts")

    def __init__(self, name: str, start: float,
                 span_id: Optional[str] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.events: List[TraceEvent] = []
        self.children: List["TraceSpan"] = []
        self.span_id = span_id
        self.grafts: List[dict] = []

    def to_row(self, epoch: float) -> dict:
        end = self.end if self.end is not None else self.start
        row = {
            "name": self.name,
            "start_ms": round((self.start - epoch) * 1e3, 4),
            "duration_ms": round((end - self.start) * 1e3, 4),
            "events": [event.to_row(epoch) for event in self.events],
            "children": [child.to_row(epoch) for child in self.children]
            + list(self.grafts),
        }
        if self.span_id is not None:
            row["span_id"] = self.span_id
        return row


def shift_span_row(row: dict, delta_ms: float) -> dict:
    """A copy of a rendered span ``row`` with every ``start_ms``/
    ``at_ms`` offset shifted by ``delta_ms`` — how a worker subtree
    (whose offsets are relative to the *worker's* root) is re-based to
    the router trace's epoch before grafting."""
    shifted = dict(row)
    shifted["start_ms"] = round(row.get("start_ms", 0.0) + delta_ms, 4)
    shifted["events"] = [
        dict(event, at_ms=round(event.get("at_ms", 0.0) + delta_ms, 4))
        for event in row.get("events", ())]
    shifted["children"] = [shift_span_row(child, delta_ms)
                           for child in row.get("children", ())]
    return shifted


class Trace:
    """The per-request span tree plus its retention bookkeeping.

    All structural mutation (opening spans, appending events) happens
    under one per-trace lock, because pooled encode chunks append to the
    same tree from several threads at once.
    """

    __slots__ = ("trace_id", "name", "root", "flags", "head_sampled",
                 "finished", "parent_span_id", "_clock", "_lock",
                 "_recorder", "_policy", "_span_seq")

    def __init__(self, trace_id: str, name: str, *,
                 clock: Callable[[], float],
                 recorder: "TraceRecorder",
                 policy: "SamplePolicy",
                 head_sampled: bool,
                 parent_span_id: Optional[str] = None) -> None:
        self.trace_id = trace_id
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._recorder = recorder
        self._policy = policy
        self.flags: set = set()
        self.head_sampled = head_sampled
        self.finished = False
        #: caller-side span this trace continues (a joined trace); the
        #: wire form echoes it so the caller can stitch the subtree in
        self.parent_span_id = parent_span_id
        self._span_seq = 1
        self.root = TraceSpan(name, clock(), span_id="s0")

    # -- structural mutation (thread-safe) ---------------------------------
    def open_span(self, name: str, parent: TraceSpan) -> TraceSpan:
        start = self._clock()
        with self._lock:
            child = TraceSpan(name, start, span_id=f"s{self._span_seq}")
            self._span_seq += 1
            parent.children.append(child)
        return child

    def graft(self, span: TraceSpan, row: dict) -> None:
        """Hang an already-rendered (and re-based, see
        :func:`shift_span_row`) span row from another process under
        ``span`` — the cross-process stitch."""
        with self._lock:
            span.grafts.append(row)

    def close_span(self, span: TraceSpan) -> None:
        span.end = self._clock()

    def add_event(self, kind: str, span: Optional[TraceSpan] = None,
                  **attrs: object) -> None:
        """Append a typed event to ``span`` (default: this trace's
        current span on the calling thread, else the root)."""
        if span is None:
            ctx = getattr(_local, "ctx", None)
            span = ctx[1] if ctx is not None and ctx[0] is self \
                else self.root
        event = TraceEvent(kind, self._clock(), attrs)
        with self._lock:
            span.events.append(event)

    def flag(self, name: str) -> None:
        """Mark the trace (``error``/``degraded``/``deadline``/``shed``
        force retention past the sampling draw)."""
        with self._lock:
            self.flags.add(name)

    # -- lifecycle ---------------------------------------------------------
    @contextlib.contextmanager
    def activate(self) -> Iterator["Trace"]:
        """Make this trace the calling thread's active context for the
        duration of the ``with`` block."""
        previous = getattr(_local, "ctx", None)
        _local.ctx = (self, self.root)
        try:
            yield self
        finally:
            _local.ctx = previous

    def finish(self) -> bool:
        """Close the root span and hand the trace to the recorder when
        the sampling policy keeps it; returns whether it was kept."""
        if self.finished:
            return False
        self.finished = True
        self.root.end = self._clock()
        kept = self._policy.keep(self.head_sampled, self.flags)
        reg = registry()
        if kept:
            reg.counter("obs.trace.kept").inc()
            self._recorder.add(self.to_row())
        else:
            reg.counter("obs.trace.unsampled").inc()
        return kept

    @property
    def duration(self) -> float:
        end = self.root.end if self.root.end is not None else self._clock()
        return end - self.root.start

    def to_row(self) -> dict:
        epoch = self.root.start
        row = {
            "type": "trace",
            "trace_id": self.trace_id,
            "name": self.name,
            "flags": sorted(self.flags),
            "sampled": "head" if self.head_sampled else "forced",
            # raw clock reading at trace start (schema v3): span offsets
            # are epoch-relative, so without this the inter-arrival
            # spacing is unrecoverable and exports could not be replayed
            # as load schedules (repro load replay)
            "started": round(epoch, 6),
            "duration_ms": round(self.duration * 1e3, 4),
            "spans": self.root.to_row(epoch),
        }
        if self.parent_span_id is not None:
            row["parent_span"] = self.parent_span_id
        return row

    def to_wire(self) -> dict:
        """The compact form shipped back to the caller that owns the
        trace: flags + span tree only — the caller already knows the
        trace id and will re-base the offsets to its own epoch."""
        wire = {
            "flags": sorted(self.flags),
            "sampled": "head" if self.head_sampled else "forced",
            "duration_ms": round(self.duration * 1e3, 4),
            "spans": self.root.to_row(self.root.start),
        }
        if self.parent_span_id is not None:
            wire["parent_span"] = self.parent_span_id
        return wire


class _NullTrace:
    """The disabled-tracing stand-in: every operation is a pass and no
    lock — recorder or trace — is ever taken."""

    __slots__ = ()

    trace_id = None
    name = None
    flags: FrozenSet[str] = frozenset()
    head_sampled = False
    finished = True
    root = None
    parent_span_id = None

    def open_span(self, name, parent):
        return None

    def close_span(self, span) -> None:
        pass

    def graft(self, span, row) -> None:
        pass

    def to_wire(self) -> dict:
        return {}

    def add_event(self, kind, span=None, **attrs) -> None:
        pass

    def flag(self, name) -> None:
        pass

    @contextlib.contextmanager
    def activate(self):
        yield self

    def finish(self) -> bool:
        return False


NULL_TRACE = _NullTrace()


class SamplePolicy:
    """Head sampling with forced retention for flagged traces.

    ``rate`` is the probability a trace is kept by the head draw (made
    once, at trace start).  A trace carrying any flag in
    ``force_flags`` is kept regardless — errors and sheds are exactly
    the traces worth reading, so they are never sampled away.  ``rng`` is injectable for
    deterministic tests.
    """

    __slots__ = ("rate", "force_flags", "_rng", "_lock")

    def __init__(self, rate: float = 1.0,
                 force_flags: FrozenSet[str] = FORCE_FLAGS,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be in [0, 1]")
        self.rate = float(rate)
        self.force_flags = frozenset(force_flags)
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()

    def sample_head(self) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        with self._lock:  # random.Random is not thread-safe under races
            return self._rng.random() < self.rate

    def keep(self, head_sampled: bool, flags) -> bool:
        return head_sampled or bool(self.force_flags & set(flags))


class TraceRecorder:
    """Bounded in-process store of finished trace rows (newest kept)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._lock = threading.Lock()
        self._rows: deque = deque(maxlen=capacity)
        self._evicted = 0

    @property
    def capacity(self) -> int:
        return self._rows.maxlen

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        with self._lock:
            if capacity != self._rows.maxlen:
                self._rows = deque(self._rows, maxlen=capacity)

    def add(self, row: dict) -> None:
        with self._lock:
            if len(self._rows) == self._rows.maxlen:
                self._evicted += 1
            self._rows.append(row)

    @property
    def evicted(self) -> int:
        return self._evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def snapshot(self) -> List[dict]:
        with self._lock:
            return list(self._rows)

    def reset(self) -> None:
        with self._lock:
            self._rows.clear()
            self._evicted = 0


class Tracer:
    """Mints traces against one recorder/policy/clock triple."""

    def __init__(self, policy: Optional[SamplePolicy] = None,
                 recorder: Optional[TraceRecorder] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 id_factory: Optional[Callable[[], str]] = None) -> None:
        self.policy = policy if policy is not None else SamplePolicy()
        self.recorder = recorder if recorder is not None \
            else trace_recorder()
        self._clock = clock
        self._id_factory = id_factory if id_factory is not None \
            else (lambda: uuid.uuid4().hex[:16])

    def start(self, name: str = "request", *,
              trace_id: Optional[str] = None,
              parent_span_id: Optional[str] = None):
        """A new active-ready trace — or :data:`NULL_TRACE` when tracing
        is disabled (no id minted, no lock touched).

        With ``trace_id`` the trace *joins* a caller's id instead of
        minting one (cross-process propagation); ``parent_span_id``
        names the caller-side span this process's work continues.  The
        head-sampling draw is still this process's own — retention is a
        local decision either way."""
        if not _enabled:
            return NULL_TRACE
        reg = registry()
        reg.counter("obs.trace.started").inc()
        if trace_id is not None:
            reg.counter("obs.trace.joined").inc()
        return Trace(trace_id if trace_id is not None
                     else self._id_factory(),
                     name, clock=self._clock,
                     recorder=self.recorder, policy=self.policy,
                     head_sampled=self.policy.sample_head(),
                     parent_span_id=parent_span_id)

    @contextlib.contextmanager
    def trace(self, name: str = "request") -> Iterator[Trace]:
        """``start`` + ``activate`` + ``finish`` in one ``with`` block."""
        trace = self.start(name)
        with trace.activate():
            try:
                yield trace
            finally:
                trace.finish()


_default_recorder = TraceRecorder()
_default_tracer: Optional[Tracer] = None


def trace_recorder() -> TraceRecorder:
    """The process-wide default trace recorder (what the JSONL exporter
    reads)."""
    return _default_recorder


def tracer() -> Tracer:
    """A process-wide default tracer over the default recorder."""
    global _default_tracer
    if _default_tracer is None:
        _default_tracer = Tracer()
    return _default_tracer


# -- ambient context helpers (no-ops without an active trace) --------------
def current_trace() -> Optional[Trace]:
    """The calling thread's active trace, or ``None``."""
    ctx = getattr(_local, "ctx", None)
    return ctx[0] if ctx is not None else None


@contextlib.contextmanager
def trace_span(name: str) -> Iterator[Optional[TraceSpan]]:
    """Open a child span under the active trace context; a cheap no-op
    (one thread-local read) when no trace is active."""
    ctx = getattr(_local, "ctx", None)
    if ctx is None:
        yield None
        return
    trace, parent = ctx
    child = trace.open_span(name, parent)
    _local.ctx = (trace, child)
    try:
        yield child
    finally:
        trace.close_span(child)
        _local.ctx = ctx


def add_trace_event(kind: str, **attrs: object) -> None:
    """Append a typed event to the active trace's current span;
    a no-op without an active trace."""
    ctx = getattr(_local, "ctx", None)
    if ctx is not None:
        ctx[0].add_event(kind, span=ctx[1], **attrs)


def flag_trace(name: str) -> None:
    """Flag the active trace (no-op without one)."""
    ctx = getattr(_local, "ctx", None)
    if ctx is not None:
        ctx[0].flag(name)


def capture_context() -> Optional[Tuple[Trace, TraceSpan]]:
    """Snapshot the calling thread's (trace, span) context so a pooled
    task can re-enter it with :func:`activate_context`."""
    return getattr(_local, "ctx", None)


@contextlib.contextmanager
def activate_context(ctx: Optional[Tuple[Trace, TraceSpan]]) -> Iterator[None]:
    """Re-enter a captured context on another thread (no-op for
    ``None``), so pooled work attributes its spans to the owning
    request's tree."""
    if ctx is None:
        yield
        return
    previous = getattr(_local, "ctx", None)
    _local.ctx = ctx
    try:
        yield
    finally:
        _local.ctx = previous
