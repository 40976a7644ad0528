"""The match query service.

:class:`MatchService` wraps one *fitted* matcher and answers single-
vertex match queries with production failure semantics:

* :meth:`MatchService.warmup` cuts every vertex's *whole owned ranking*
  from the tile kernel once: the *answer table*.  Its depth is the
  number of images the service answers for (all of them unsharded, a
  shard worker's owned share otherwise), so every request, whatever its
  ``top_k``, is a prefix slice of its vertex's row (DESIGN.md §13).  A
  slice is already computed: it cannot hang, so nothing on the request
  path waits, retries or spends a budget.  The towers run once, in
  that build, which fills the matcher's frozen text matrix and encodes
  the images the service answers for;
* so every answer is ``tier: "full"``, or it is a typed error:
  ``bad_request`` for a request the field checks refuse
  (:func:`parse_query`), or ``internal`` for a service too broken to
  warm up;
* a request a door refuses to admit (a connection's outstanding cap, a
  drain) gets one typed, traced ``overloaded`` / ``unavailable`` shape,
  :meth:`reject`;
* the ``table`` control op hands over every row's first
  :data:`~repro.netserve.protocol.TABLE_K` entries (with their sha256),
  so a shard router can merge the workers' heads and answer short
  requests itself.

The service owns no thread and no queue: every door calls
:meth:`MatchService.handle` inline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys
import threading
import time
from typing import (Any, Callable, ClassVar, Collection, Dict, Iterable,
                    List, Optional, Sequence, Tuple)

import numpy as np

from ..core.matcher import CrossEM
from ..index.topk import deterministic_topk
from ..obs import get_logger, registry, span, span_snapshot
from ..obs.trace import (FLAG_ERROR, FLAG_SHED, SamplePolicy, Tracer,
                         add_trace_event, flag_trace, trace_recorder,
                         trace_span)
from .errors import BadRequest, error_response

__all__ = ["BATCH_TILE", "ServeConfig", "MatchService", "parse_query",
           "parse_trace_context", "table_digest"]

_log = get_logger("repro.serve.service")

#: fixed row-tile width of the tile kernel: the answer table is scored
#: through operands of exactly this many rows (the last tile padded with
#: duplicates), which pins the BLAS kernel, so a row's bits do not
#: depend on which vertices share its tile (DESIGN.md §13)
BATCH_TILE = 8


def parse_trace_context(request: Any) -> Tuple[Optional[str],
                                               Optional[str], bool]:
    """The caller's trace context off a request, if any.

    The wire format (DESIGN.md §15) is an optional ``trace`` field::

        {"trace": {"trace_id": "...", "parent_span": "s3",
                   "return_spans": true}}

    Returns ``(trace_id, parent_span, return_spans)``.  A missing
    context is ``(None, None, False)`` — the service mints its own
    trace as before.  A *malformed* context (non-dict, empty or
    non-string id) is treated the same but counted under
    ``serve.trace.bad_context``: telemetry plumbing must never fail a
    request that would otherwise have been answered.
    """
    if not isinstance(request, dict) or "trace" not in request:
        return (None, None, False)
    ctx = request.get("trace")
    trace_id = ctx.get("trace_id") if isinstance(ctx, dict) else None
    if not isinstance(trace_id, str) or not trace_id:
        registry().counter("serve.trace.bad_context").inc()
        return (None, None, False)
    parent = ctx.get("parent_span")
    if parent is not None and not isinstance(parent, str):
        parent = None
    return (trace_id, parent, bool(ctx.get("return_spans")))


@dataclasses.dataclass
class ServeConfig:
    """Tuning knobs of the serving layer (see README "Serving")."""

    #: the tile width, readable off a config; not a knob
    batch_tile: ClassVar[int] = BATCH_TILE
    #: matches returned when a request does not ask for a count
    top_k_default: int = 1
    #: head-sampling rate for request traces (errors and sheds are
    #: always kept regardless)
    trace_sample_rate: float = 1.0
    #: sampled traces retained in the bounded recorder (newest win)
    trace_capacity: int = 256
    #: shard membership (both set or both None): this worker answers
    #: only for image positions ``p`` with ``p % shard_count ==
    #: shard_slot``.  It encodes only those images, but scores them
    #: through an operand of the unsharded shape, so every owned score
    #: is the bits a single process computes; the mask then applies at
    #: top-k selection, which is what makes the router's cross-shard
    #: merge bit-identical (DESIGN.md §14).
    shard_slot: Optional[int] = None
    shard_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.top_k_default < 1:
            raise ValueError("top_k_default must be at least 1")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be at least 1")
        if (self.shard_slot is None) != (self.shard_count is None):
            raise ValueError("shard_slot and shard_count must be set "
                             "together")
        if self.shard_count is not None:
            if self.shard_count < 1:
                raise ValueError("shard_count must be at least 1")
            if not 0 <= self.shard_slot < self.shard_count:
                raise ValueError("shard_slot must be in "
                                 "[0, shard_count)")


@dataclasses.dataclass(frozen=True)
class _Query:
    """A validated request."""

    vertex: int
    top_k: int
    budget: Optional[float]  # seconds


def parse_query(request: Any, *, vertices: Collection[int], images: int,
                top_k_default: int) -> _Query:
    """Validate one match request — the field checks every door applies:
    the service before answering, the shard router before it answers
    from its merged table or scatters (so a request this rejects gets
    the same error from every door).  Raises :class:`BadRequest`."""
    if not isinstance(request, dict):
        raise BadRequest("request must be a JSON object")
    vertex = request.get("vertex")
    if isinstance(vertex, bool) or not isinstance(vertex, int):
        raise BadRequest("field 'vertex' must be an integer vertex id")
    if vertex not in vertices:
        raise BadRequest(f"unknown vertex {vertex}")
    top_k = request.get("top_k", top_k_default)
    if isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1:
        raise BadRequest("field 'top_k' must be a positive integer")
    # Clamp to the repository size: there are only so many images to
    # return.  The response simply carries the clamped (achievable)
    # count.
    top_k = min(top_k, images)
    # Outside input, so validated like the rest; no door spends it (a
    # slice cannot be late), but traces record it for replay.  It must
    # be finite: ``json.loads`` admits ``NaN``/``Infinity`` (and
    # integers past float range), and a ``NaN`` would make an exported
    # trace invalid strict JSON.
    budget_ms = request.get("budget_ms")
    budget = None
    if budget_ms is not None:
        if isinstance(budget_ms, bool) \
                or not isinstance(budget_ms, (int, float)) \
                or not 0 < budget_ms <= sys.float_info.max:
            raise BadRequest("field 'budget_ms' must be a positive, "
                             "finite number of milliseconds")
        budget = float(budget_ms) / 1000.0
    return _Query(vertex=vertex, top_k=top_k, budget=budget)


def table_digest(vertices: Iterable[int],
                 rows: Iterable[Tuple[Sequence[int], Sequence[float]]]
                 ) -> str:
    """sha256 of an answer table, in table order: the ``(vertex, row
    length)`` pairs as int64, then every row's image ids as int64, then
    every row's scores as float32 (all little-endian).  A float decoded
    from the wire is the float64 of a float32, so a router recomputes a
    worker's digest exactly."""
    rows = list(rows)
    lengths = [len(ids) for ids, _ in rows]
    total = sum(lengths)
    digest = hashlib.sha256()
    digest.update(np.array([list(vertices), lengths],
                           dtype="<i8").T.tobytes())
    digest.update(np.fromiter(itertools.chain.from_iterable(
        ids for ids, _ in rows), dtype="<i8", count=total).tobytes())
    digest.update(np.fromiter(itertools.chain.from_iterable(
        scores for _, scores in rows), dtype="<f4", count=total).tobytes())
    return digest.hexdigest()


def _shipped_k() -> int:
    # Lazy import: repro.netserve's package __init__ pulls the TCP
    # server, which imports this module.
    from ..netserve.protocol import TABLE_K
    return TABLE_K


class MatchService:
    """Answers match queries over a fitted matcher, with failure
    isolation.  See the module docstring for the failure model."""

    def __init__(self, matcher: CrossEM, *,
                 config: Optional[ServeConfig] = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Optional[Tracer] = None) -> None:
        if matcher.graph is None:
            raise ValueError("MatchService needs a fitted matcher "
                             "(call CrossEM.fit first)")
        self.matcher = matcher
        self.config = config or ServeConfig()
        self._clock = clock
        if tracer is None:
            trace_recorder().set_capacity(self.config.trace_capacity)
            tracer = Tracer(
                policy=SamplePolicy(rate=self.config.trace_sample_rate),
                clock=clock)
        self.tracer = tracer
        self._vertex_set = set(matcher.vertex_ids)
        self._images = len(matcher.images)
        #: repository positions this worker answers for (None = all)
        #: and the image ids at them, aligned
        self._owned: Optional[np.ndarray] = None
        self._owned_ids = np.array([img.image_id for img in matcher.images],
                                   dtype=np.int64)
        if self.config.shard_count is not None:
            # Lazy import: repro.shard's package __init__ pulls the
            # router, which imports this module.
            from ..shard.partition import owned_positions
            self._owned = owned_positions(self._images,
                                          self.config.shard_count,
                                          self.config.shard_slot)
            self._owned_ids = self._owned_ids[self._owned]
        #: the answer table: vertex -> read-only (image ids, scores) of
        #: its whole owned ranking, best first; None until warmup()
        self._table: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] \
            = None
        #: :func:`table_digest` of what the ``table`` op ships, computed
        #: once with the table
        self._table_sha256: Optional[str] = None
        self._warm_lock = threading.Lock()

    # -- construction ------------------------------------------------------
    def warmup(self) -> "MatchService":
        """Encode the images the service answers for, fill the frozen
        text matrix (tuned soft prompts included) and build the answer
        table, so no request triggers a bulk encode.  A backend that
        cannot even warm up fails the service *here*, loudly, not one
        request at a time.

        Runs once, under a lock: concurrent first requests wait for one
        build.  The table is published only when whole; after a failure
        the next request tries again."""
        if self._table is not None:
            return self
        with self._warm_lock:
            if self._table is not None:
                return self
            with span("serve/warmup"):
                table = self._build_table()
                k = _shipped_k()
                self._table_sha256 = table_digest(
                    table, ((ids[:k], scores[:k])
                            for ids, scores in table.values()))
            self._table = table
        return self

    def _build_table(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Every vertex's whole owned ranking, cut by :meth:`_top` from
        its row of a ``BATCH_TILE``-row :meth:`CrossEM.score` operand.
        The order is total, so the first ``top_k`` entries are exactly
        what ``_top(row, top_k)`` returns (DESIGN.md §13).  A shard
        worker encodes only the images it owns, into an operand of the
        unsharded shape (:meth:`CrossEM.image_matrix`, DESIGN.md §14).
        An attached ANN index is not consulted: at full depth it cannot
        narrow the row."""
        depth = self.owned_images
        vertices = list(self.matcher.vertex_ids)
        images = None if self._owned is None \
            else self.matcher.image_matrix(self._owned)
        table: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for start in range(0, len(vertices), BATCH_TILE):
            chunk = vertices[start:start + BATCH_TILE]
            padded = chunk + [chunk[-1]] * (BATCH_TILE - len(chunk))
            for vertex, row in zip(chunk,
                                   self.matcher.score(padded, images)):
                ids, scores = self._top(row, depth)
                ids.setflags(write=False)
                scores.setflags(write=False)
                table[vertex] = (ids, scores)
        return table

    @property
    def owned_images(self) -> int:
        """Images this worker answers for (all of them unsharded)."""
        return len(self._owned_ids)

    def _top(self, scores: np.ndarray,
             top_k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(image ids, scores)`` of the ``top_k`` best owned matches
        in a score row, best first."""
        # One total order on every served path: (-score, image id) —
        # not position: repositories are shuffled after ids are
        # assigned, and ids are all a router can re-sort by.  A shard
        # worker selects among its owned positions only: their scores
        # are the unsharded row's bits, so the router's merge in the
        # same order reconstructs the unsharded answer bit for bit,
        # exact ties included (DESIGN.md §14).  A non-finite score is
        # never a match; clamping k to the finite count keeps it out.
        if self._owned is not None:
            scores = scores[self._owned]
        keep = np.isfinite(scores)
        order = deterministic_topk(
            np.where(keep, scores, -np.inf),
            min(top_k, int(np.count_nonzero(keep))),
            tie_break=self._owned_ids)
        return self._owned_ids[order], scores[order]

    @staticmethod
    def _matches(ids: np.ndarray, scores: np.ndarray,
                 top_k: int) -> List[dict]:
        """The wire form of the first ``top_k`` of a ranked answer —
        fresh dicts every call, so no caller can reach the table."""
        return [{"image": image, "score": score} for image, score in
                zip(ids[:top_k].tolist(), scores[:top_k].tolist())]

    # -- request lifecycle -------------------------------------------------
    def _traced(self, request: Any,
                respond: Callable[[Any], dict]) -> dict:
        """Count one request and answer it inside its ``serve.request``
        trace: ``respond(request_id)`` runs with the trace active, and
        the response leaves carrying its ``trace_id``.

        Whether a trace is *retained* is the sampling policy's call at
        finish; errors and sheds flag themselves on the way through and
        are always kept.  A request carrying a ``trace`` context *joins*
        the caller's trace, and — if it asks for ``return_spans`` and
        the trace was retained — ships its span tree back in the
        response's ``trace`` field for cross-process stitching
        (DESIGN.md §15).
        """
        registry().counter("serve.requests_total").inc()
        request_id = request.get("id") if isinstance(request, dict) else None
        trace_id, parent_span, return_spans = parse_trace_context(request)
        trace = self.tracer.start("serve.request", trace_id=trace_id,
                                  parent_span_id=parent_span)
        with trace.activate():
            response = respond(request_id)
        kept = trace.finish()
        if trace.trace_id is not None:
            response["trace_id"] = trace.trace_id
            if return_spans and kept:
                response["trace"] = trace.to_wire()
        return response

    def handle(self, request: Any) -> dict:
        """Answer one request synchronously; always returns a response
        dict (carrying its ``trace_id``), never raises (per-request
        isolation).  The one request path behind every door: parse,
        then slice the answer table."""
        started = self._clock()
        try:
            self.warmup()
        except Exception as exc:  # a backend too sick to even warm up
            message = f"warmup failed: {type(exc).__name__}: {exc}"
            return self._traced(request, lambda request_id:
                                self._internal_error(request_id, message,
                                                     started))
        return self._traced(request, lambda request_id: self._respond(
            request_id, request, started))

    def handle_batch(self, requests: Sequence[Any]) -> List[dict]:
        """Answer independent requests; responses align positionally
        with ``requests``.  Each is :meth:`handle`'s answer: a slice
        shares nothing with its neighbours."""
        return [self.handle(request) for request in requests]

    def _respond(self, request_id: Any, request: Any,
                 started: float) -> dict:
        try:
            query = self._parse(request)
        except BadRequest as exc:
            return self._error_response(request_id, exc.code, str(exc),
                                        started)
        # the parsed shape, so exported traces replay as load schedules
        add_trace_event("request", vertex=query.vertex, top_k=query.top_k,
                        budget_ms=None if query.budget is None
                        else round(query.budget * 1e3, 4))
        try:
            with trace_span("tier/full"):
                add_trace_event("cache", cache="table", hit=True)
                matches = self._matches(*self._table[query.vertex],
                                        query.top_k)
        except Exception as exc:
            # Unexpected bug while answering: isolate it to this request.
            return self._internal_error(
                request_id, f"{type(exc).__name__}: {exc}", started)
        elapsed_ms = (self._clock() - started) * 1e3
        reg = registry()
        reg.counter("serve.ok_total").inc()
        reg.counter("serve.tier.full").inc()
        reg.counter("serve.table_hits_total").inc()
        reg.histogram("serve.request_ms").observe(elapsed_ms)
        return {"id": request_id, "ok": True, "vertex": query.vertex,
                "tier": "full", "degraded": False, "matches": matches,
                "elapsed_ms": round(elapsed_ms, 3)}

    def _parse(self, request: Any) -> _Query:
        return parse_query(request, vertices=self._vertex_set,
                           images=self._images,
                           top_k_default=self.config.top_k_default)

    def _internal_error(self, request_id: Any, message: str,
                        started: float) -> dict:
        registry().counter("serve.internal_errors_total").inc()
        _log.error("internal error answering request", error=message)
        return self._error_response(request_id, "internal", message, started)

    def _error_response(self, request_id: Any, code: str, message: str,
                        started: float) -> dict:
        elapsed_ms = (self._clock() - started) * 1e3
        reg = registry()
        add_trace_event("error", code=code)
        flag_trace(FLAG_ERROR)
        reg.counter("serve.error_total").inc()
        reg.counter(f"serve.error.{code}").inc()
        reg.histogram("serve.request_ms").observe(elapsed_ms)
        return error_response(request_id, code, message, elapsed_ms)

    def reject(self, request: Any, code: str, message: str) -> dict:
        """The one refusal shape, for any door: ``overloaded`` at a
        connection's outstanding cap, ``unavailable`` mid-drain.  A
        refused request never reaches :meth:`handle`, so it gets its
        trace right here; a shed is flagged and therefore always
        retained."""
        def respond(request_id: Any) -> dict:
            if code == "overloaded":
                flag_trace(FLAG_SHED)
                add_trace_event("shed", reason=message)
            else:
                add_trace_event("rejected", code=code)
            return self._error_response(request_id, code, message,
                                        self._clock())

        return self._traced(request, respond)

    def bad_line(self, error: Exception) -> dict:
        """The answer to an undecodable or oversized request line, for
        any door framing JSONL over this service.  Counted apart from
        semantic bad requests (``serve.requests.bad_line``) and traced
        like one: the error flag keeps the trace findable by id."""
        registry().counter("serve.requests.bad_line").inc()
        return self._traced(None, lambda request_id: self._error_response(
            request_id, "bad_request", f"invalid JSON: {error}",
            self._clock()))

    # -- control operations ------------------------------------------------
    def info(self, request_id: Any = None) -> dict:
        """Answer the ``info`` op: repository metadata a remote client
        needs to build a workload without fitting a local matcher —
        ``vertices`` lists every queryable entity vertex, ``images``
        bounds meaningful ``top_k``."""
        info = {
            "vertices": [int(v) for v in self.matcher.vertex_ids],
            "images": self._images,
            "top_k_default": self.config.top_k_default,
            "indexed": self.matcher.search_index is not None,
            "table_k": _shipped_k(),
            "table_sha256": self._table_sha256,
        }
        if self.config.shard_count is not None:
            # a shard worker advertises its partition so a router (or a
            # human with netcat) can see which slice of the image space
            # this process answers for
            info["shard"] = {"slot": self.config.shard_slot,
                             "count": self.config.shard_count,
                             "owned_images": self.owned_images}
        return {"id": request_id, "ok": True, "info": info}

    def table(self, request_id: Any = None) -> dict:
        """Answer the ``table`` op: every row's first ``TABLE_K``
        entries — what a shard router merges once so it can answer
        short requests itself (DESIGN.md §14).  ``ids``/``scores`` are
        per-vertex rows in ``vertices`` order; ``sha256`` is the
        :func:`table_digest` of exactly these rows, computed at warm-up,
        which ``info`` also carries."""
        try:
            self.warmup()
        except Exception as exc:  # a backend too sick to even warm up
            return error_response(request_id, "internal",
                                  f"warmup failed: {type(exc).__name__}: "
                                  f"{exc}")
        k = _shipped_k()
        table = self._table
        return {"id": request_id, "ok": True, "table": {
            "k": k,
            "vertices": [int(v) for v in table],
            "ids": [ids[:k].tolist() for ids, _ in table.values()],
            "scores": [scores[:k].tolist() for _, scores in table.values()],
            "sha256": self._table_sha256}}

    def stats(self, request_id: Any = None) -> dict:
        """Answer the ``stats`` op: the process's instruments, live.

        One registry snapshot plus the span aggregate — every row read
        under its instrument's lock, so each row is internally
        consistent even while other threads are mid-observation (not a
        cross-instrument atomic cut; DESIGN.md §15).  ``captured_unix``
        lets a scraper order snapshots and compute rates.  Never a
        scoring call, so doors answer it inline.
        """
        reg = registry()
        # counted under its historical name for every door, pipe included
        reg.counter("netserve.stats_total").inc()
        stats = {"metrics": reg.snapshot(), "spans": span_snapshot(),
                 "captured_unix": time.time()}
        if self.config.shard_count is not None:
            stats["shard"] = {"slot": self.config.shard_slot,
                              "count": self.config.shard_count}
        return {"id": request_id, "ok": True, "stats": stats}
