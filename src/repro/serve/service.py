"""The fault-tolerant match query service.

:class:`MatchService` wraps one *fitted* matcher and answers single-
vertex match queries with production failure semantics:

* :meth:`MatchService.warmup` cuts every vertex's first ``table_k``
  matches from the tile kernel once.  A request with ``top_k <=
  table_k`` is a slice of that *answer table*: computed, it cannot
  hang, so it is answered with no breaker call and no deadline check.
  The ``table`` control op hands the whole table over (with its sha256)
  so a shard router can merge the workers' tables and answer hits
  itself;
* a larger request is scored by the tile kernel through a text-backend
  :class:`~repro.serve.breaker.CircuitBreaker`, under the request's
  :class:`~repro.serve.deadline.Deadline` (from its ``budget_ms``),
  which the matcher's stage hooks check instead of running long.  The
  text tower itself runs once, at warm-up, which builds the matcher's
  frozen text matrix (and image matrix) inside the table build's
  breaker-guarded tile calls; a scoring call slices it, so what the
  breaker guards per request is whatever backs the rows and the score
  (the matrix, the GEMM, an ANN index) — a hung or flaky one stops
  being called instead of stalling requests;
* so every answer is ``tier: "full"``, from the table or the tile
  kernel, or it is a typed error: ``deadline_exceeded``,
  ``breaker_open``, or ``internal`` for a raising backend;
* a request a door refuses to admit (the micro-batcher's
  ``max_pending`` under burst, a connection's cap, a drain) gets one
  typed, traced ``overloaded`` / ``unavailable`` shape, :meth:`reject`;
* any per-request failure — malformed request, corrupt input, encoder
  bug — becomes a structured error *response*; the process never dies
  for one query.

The service owns no thread and no queue: admission and the scoring pool
are :class:`~repro.serve.batcher.MicroBatcher`'s, for every door alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import threading
import time
from typing import (Any, Callable, Collection, Dict, Iterable, List,
                    Optional, Sequence, Tuple)

import numpy as np

from ..core.matcher import CrossEM
from ..index.topk import deterministic_topk
from ..obs import get_logger, registry, span, span_snapshot
from ..obs.trace import (FLAG_DEADLINE, FLAG_ERROR, FLAG_SHED,
                         SamplePolicy, Tracer, add_trace_event, flag_trace,
                         trace_recorder, trace_span)
from .breaker import CircuitBreaker
from .deadline import Deadline, is_budget_ms
from .errors import (BadRequest, DeadlineExceeded, ServeError,
                     error_response)

__all__ = ["ServeConfig", "MatchService", "parse_query",
           "parse_trace_context", "table_digest"]

_log = get_logger("repro.serve.service")


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

    #: budget applied when a request carries none (None = unbounded)
    default_budget_ms: Optional[float] = None
    #: matches returned when a request does not ask for a count
    top_k_default: int = 1
    #: matches per vertex in the answer table ``warmup()`` builds; a
    #: request with ``top_k <= table_k`` is a slice of it.  An ANN
    #: index is searched at least this wide.
    table_k: int = 16
    #: fixed row-tile width of the tile kernel: every request, lone or
    #: fused, is scored through an operand of exactly this many rows
    #: (padded with duplicates), which pins the BLAS kernel and makes an
    #: answer independent of batch composition (DESIGN.md §13)
    batch_tile: int = 8
    #: circuit breaker: sliding window size (calls)
    breaker_window: int = 8
    #: circuit breaker: failure rate in the window that opens it
    breaker_failure_threshold: float = 0.5
    #: circuit breaker: minimum calls in the window before it can open
    breaker_min_calls: int = 3
    #: circuit breaker: how long it stays open before probing
    breaker_cooldown_ms: float = 2000.0
    #: head-sampling rate for request traces (errors, deadline blows
    #: and sheds are always kept regardless)
    trace_sample_rate: float = 1.0
    #: sampled traces retained in the bounded recorder (newest win)
    trace_capacity: int = 256
    #: shard membership (both set or both None): this worker answers
    #: only for image positions ``p`` with ``p % shard_count ==
    #: shard_slot``.  Scoring is unchanged — the full score row is
    #: computed exactly as single-process — the mask applies only at
    #: top-k selection, which is what makes the router's cross-shard
    #: merge bit-identical (DESIGN.md §14).
    shard_slot: Optional[int] = None
    shard_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.default_budget_ms is not None and self.default_budget_ms <= 0:
            raise ValueError("default_budget_ms must be positive")
        if self.top_k_default < 1:
            raise ValueError("top_k_default must be at least 1")
        if self.table_k < 1:
            raise ValueError("table_k must be at least 1")
        if self.batch_tile < 1:
            raise ValueError("batch_tile must be at least 1")
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
                top_k_default: int,
                default_budget_ms: Optional[float] = None) -> _Query:
    """Validate one match request — the field checks every door applies:
    the service before answering, the shard router before answering a
    hit from its merged table (a request this rejects is scattered, so
    the workers word the error).  Raises :class:`BadRequest`."""
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
    # Clamp to the repository size: there are only so many images
    # to return, and an unclamped top_k=10**9 would otherwise size
    # allocations in _top and the ANN over-fetch.
    # The response simply carries the clamped (achievable) count.
    top_k = min(top_k, images)
    budget_ms = request.get("budget_ms", default_budget_ms)
    budget = None
    if budget_ms is not None:
        if not is_budget_ms(budget_ms):
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
        self.text_breaker = CircuitBreaker(
            "text", window=self.config.breaker_window,
            failure_threshold=self.config.breaker_failure_threshold,
            min_calls=self.config.breaker_min_calls,
            cooldown=self.config.breaker_cooldown_ms / 1000.0, clock=clock)
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
        #: its first ``table_k`` owned matches; None until warmup()
        self._table: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] \
            = None
        #: :func:`table_digest` of the table, computed once with it
        self._table_sha256: Optional[str] = None
        self._warm_lock = threading.Lock()

    # -- construction ------------------------------------------------------
    def warmup(self) -> "MatchService":
        """Populate every embedding cache — image matrix, frozen text
        matrix (tuned soft prompts included) — build the answer table,
        and run every import the request path makes lazily, so no
        request triggers a bulk encode or a module load.  The encodes
        run inside the table build's tile calls, through the text
        breaker: a backend that cannot even warm up fails the service
        *here*, loudly, not one request at a time.

        Runs once, under a lock: concurrent first requests (the
        batcher's pool) wait for one build.  The table is published only
        when whole; after a failure the next request tries again."""
        if self._table is not None:
            return self
        with self._warm_lock:
            if self._table is not None:
                return self
            with span("serve/warmup"):
                table = self._build_table()
                self._table_sha256 = table_digest(table, table.values())
            self._table = table
        return self

    def _build_table(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Every vertex's first ``table_k`` matches, cut by :meth:`_top`
        from its :meth:`_score_tile` row — the bits a request gets.  The
        order is strict, so any ``top_k <= table_k`` answer is a prefix
        of the entry (DESIGN.md §13)."""
        k = self.config.table_k
        tile = self.config.batch_tile
        vertices = list(self.matcher.vertex_ids)
        deadline = Deadline.unbounded(clock=self._clock)
        table: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for start in range(0, len(vertices), tile):
            chunk = vertices[start:start + tile]
            for vertex, row in zip(chunk,
                                   self._score_tile(chunk, k, deadline)):
                ids, scores = self._top(row, k)
                ids.setflags(write=False)
                scores.setflags(write=False)
                table[vertex] = (ids, scores)
        return table

    # -- request validation ------------------------------------------------
    def _parse(self, request: Any) -> _Query:
        return parse_query(request, vertices=self._vertex_set,
                           images=self._images,
                           top_k_default=self.config.top_k_default,
                           default_budget_ms=self.config.default_budget_ms)

    # -- scoring -----------------------------------------------------------
    def _index_k(self, top_k: int) -> int:
        """The ANN fetch width serving ``top_k`` (0 = brute force, where
        k does not shape the score row).  Floored at ``table_k``, the
        search the answer table's rows come from."""
        if self.matcher.search_index is None:
            return 0
        return max(top_k, self.config.table_k)

    def _score_tile(self, vertices: List[int], top_k: int,
                    deadline: Deadline) -> List[np.ndarray]:
        """Score rows for ``vertices`` in one breaker-guarded call, in
        fixed ``batch_tile``-row tiles — the one function that defines a
        served score.

        The fixed operand shape is the exactness argument (DESIGN.md
        §13): BLAS kernels round differently per operand *shape*, but
        for a pinned shape each output row depends only on its own
        query row.  Padding every tile to ``batch_tile`` rows (with
        duplicate vertices) makes a row bit-identical whether its
        vertex came alone or fused with any companions.  With an ANN
        index attached a row is dense but ``-inf`` off the shortlist,
        so :meth:`_top` needs no second shape.  Brute-force rows are
        views of their tile; nothing keeps them past the batch.

        ``deadline`` is the tightest budget among the callers.  The
        pre-flight check sits *outside* the breaker: an already-dead
        budget is not evidence against the backend.  Inside, the
        matcher's stage hooks re-check it between the text rows, the
        image operand and the tiles, so a hung backend surfaces as
        DeadlineExceeded — which the breaker does count.
        """
        deadline.check("score_full")
        tile = self.config.batch_tile
        matcher = self.matcher
        k = self._index_k(top_k)

        def run() -> List[np.ndarray]:
            rows: List[np.ndarray] = []
            with matcher.encode_hook(deadline.check):
                for start in range(0, len(vertices), tile):
                    chunk = vertices[start:start + tile]
                    padded = chunk + [chunk[-1]] * (tile - len(chunk))
                    if k:
                        ids, scores = matcher.score_topk(padded, k)
                        for r in range(len(chunk)):
                            row = np.full(self._images, -np.inf,
                                          dtype=np.float32)
                            valid = ids[r] >= 0
                            row[ids[r][valid]] = scores[r][valid]
                            rows.append(row)
                    else:
                        rows.extend(matcher.score(padded)[:len(chunk)])
                    deadline.check("score_full")
            return rows

        return self.text_breaker.call(run)

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
        # worker selects among its owned positions only: the scores
        # themselves are full-row exact, so the router's merge in the
        # same order reconstructs the unsharded answer bit for bit,
        # exact ties included (DESIGN.md §14).  -inf marks
        # off-shortlist entries of an index-backed row, never real
        # matches; clamping k to the finite count keeps them out.
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

    # -- answering ---------------------------------------------------------
    def _answer(self, query: _Query, deadline: Deadline,
                full_row: Optional[np.ndarray] = None,
                ) -> Tuple[np.ndarray, np.ndarray]:
        """The request's ranked answer, from one of two places.

        ``top_k <= table_k``: its slice of the answer table — no breaker
        call and no deadline check, because the answer is already
        computed and cannot hang.  Otherwise the vertex's tile-kernel
        row: ``full_row`` when :meth:`handle_batch` scored it for a
        fused group, else one :meth:`_score_tile` call inside this
        request's trace, under the text breaker and the deadline.  A
        failure there is the request's typed error; there is nothing
        to fall back to.
        """
        try:
            with trace_span("tier/full"):
                if query.top_k <= self.config.table_k:
                    add_trace_event("cache", cache="table", hit=True)
                    return self._table[query.vertex]
                if full_row is None:
                    full_row = self._score_tile([query.vertex], query.top_k,
                                                deadline)[0]
                else:
                    deadline.check("score_full")
                return self._top(full_row, query.top_k)
        except DeadlineExceeded as exc:
            registry().counter("serve.deadline_exceeded_total").inc()
            add_trace_event("deadline", stage=exc.stage)
            flag_trace(FLAG_DEADLINE)
            raise

    # -- request lifecycle -------------------------------------------------
    def _traced(self, request: Any,
                respond: Callable[[Any], dict]) -> dict:
        """Count one request and answer it inside its ``serve.request``
        trace: ``respond(request_id)`` runs with the trace active, and
        the response leaves carrying its ``trace_id``.

        Whether a trace is *retained* is the sampling policy's call at
        finish; errors, deadline blows and sheds flag themselves on the
        way through and are always kept.  A request carrying a
        ``trace`` context *joins* the caller's trace, and —
        if it asks for ``return_spans`` and the trace was retained —
        ships its span tree back in the response's ``trace`` field for
        cross-process stitching (DESIGN.md §15).
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
        """Process one request synchronously — a batch of one; always
        returns a response dict (carrying its ``trace_id``), never
        raises (per-request isolation)."""
        return self.handle_batch([request])[0]

    def handle_batch(self, requests: Sequence[Any]) -> List[dict]:
        """Answer independent requests — the one pipeline behind every
        front door (in-process, stdio, TCP micro-batches, shard
        workers).  Responses align positionally with ``requests``.

        Each request is parsed once, then answered inside its own trace
        with its own deadline, metrics and isolation.  What a batch
        shares is the scoring of requests past the answer table: they
        are grouped by ANN fetch width, and each group of two or more
        is scored up front in one :meth:`_score_tile` call.  A group of
        one is *not* pre-scored — :meth:`_answer` makes the same call
        itself, so a lone query is scored inside its trace and a
        failure is accounted once.  Either way the operand is the
        ``batch_tile`` tile, so answers do not depend on batch
        composition (DESIGN.md §13).  If a fused call fails — deadline,
        breaker, encoder bug — each member makes its own call; a batch
        never turns one failure into N undiagnosed ones.
        """
        started = self._clock()
        try:
            self.warmup()
        except Exception as exc:  # a backend too sick to even warm up
            message = f"warmup failed: {type(exc).__name__}: {exc}"
            return [self._traced(request, lambda request_id:
                                 self._internal_error(request_id, message,
                                                      started))
                    for request in requests]
        parsed: List[Any] = []
        groups: Dict[int, List[int]] = {}
        for position, request in enumerate(requests):
            try:
                query = self._parse(request)
            except BadRequest as exc:
                query = exc
            else:
                if query.top_k > self.config.table_k and \
                        self.text_breaker.allows_call():
                    # with an ANN index attached, k shapes the shortlist
                    # and therefore the answer, so only like-k requests
                    # may share a call; brute force ignores k (one group)
                    groups.setdefault(self._index_k(query.top_k),
                                      []).append(position)
            parsed.append(query)
        rows: Dict[int, np.ndarray] = {}
        reg = registry()
        for k, positions in groups.items():
            if len(positions) < 2:
                continue
            budgets = [parsed[p].budget for p in positions
                       if parsed[p].budget is not None]
            deadline = Deadline(min(budgets) if budgets else None,
                                clock=self._clock)
            try:
                block = self._score_tile(
                    [parsed[p].vertex for p in positions], k, deadline)
            except Exception:
                continue  # each member makes its own call below
            reg.counter("serve.batch.fused_total").inc(len(positions))
            reg.histogram("serve.batch.group_size").observe(
                float(len(positions)))
            rows.update(zip(positions, block))
        return [self._traced(request, lambda request_id, p=position:
                             self._respond(request_id, parsed[p],
                                           rows.get(p), started))
                for position, request in enumerate(requests)]

    def answer_hit(self, request: Any) -> Optional[dict]:
        """The whole answer to ``request`` if it is a hit — the answer
        table is built and the request parses to ``top_k <= table_k`` —
        else ``None``: a past-table or malformed request, or any request
        before warm-up, is :meth:`handle_batch`'s.  Parsed once and
        answered through the same traced path, so the response carries
        the bytes :meth:`handle_batch` would give it (bar ``elapsed_ms``
        and ``trace_id``); counted in ``serve.table_hits_total``.  The
        micro-batcher calls this in the submitting thread, so a hit
        never waits for a window or a pool thread."""
        if self._table is None:
            return None
        started = self._clock()
        try:
            query = self._parse(request)
        except BadRequest:
            return None
        if query.top_k > self.config.table_k:
            return None
        registry().counter("serve.table_hits_total").inc()
        return self._traced(request, lambda request_id: self._respond(
            request_id, query, None, started))

    def _respond(self, request_id: Any, query: Any,
                 full_row: Optional[np.ndarray], started: float) -> dict:
        """One request's answer, given its parse outcome (a
        :class:`_Query` or the :class:`BadRequest` it raised).
        ``started`` is the batch's admission time, so ``elapsed_ms``
        charges a fused request its share of the shared scoring call."""
        if isinstance(query, BadRequest):
            return self._error_response(request_id, query.code, str(query),
                                        started)
        # the parsed shape, so exported traces replay as load schedules
        add_trace_event("request", vertex=query.vertex, top_k=query.top_k,
                        budget_ms=None if query.budget is None
                        else round(query.budget * 1e3, 4))
        if full_row is not None:
            add_trace_event("batch", fused=True)
        deadline = Deadline(query.budget, clock=self._clock)
        try:
            ranked = self._answer(query, deadline, full_row)
        except ServeError as exc:
            return self._error_response(request_id, exc.code, str(exc),
                                        started)
        except Exception as exc:
            # Unexpected bug while answering: isolate it to this request.
            return self._internal_error(
                request_id, f"{type(exc).__name__}: {exc}", started)
        elapsed_ms = (self._clock() - started) * 1e3
        reg = registry()
        reg.counter("serve.ok_total").inc()
        reg.counter("serve.tier.full").inc()
        reg.histogram("serve.request_ms").observe(elapsed_ms)
        return {"id": request_id, "ok": True, "vertex": query.vertex,
                "tier": "full", "degraded": False,
                "matches": self._matches(*ranked, query.top_k),
                "elapsed_ms": round(elapsed_ms, 3)}

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
        """The one refusal shape, for any door: ``overloaded`` at the
        batcher's ``max_pending`` or a connection's outstanding cap,
        ``unavailable`` mid-drain.  A refused request never reaches
        :meth:`handle_batch`, so it gets its trace right here; a shed
        is flagged and therefore always retained."""
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
            "table_k": self.config.table_k,
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
        """Answer the ``table`` op: this worker's answer table, whole —
        what a shard router merges once so it can answer hits itself
        (DESIGN.md §14).  ``ids``/``scores`` are per-vertex rows in
        ``vertices`` order; ``sha256`` is the :func:`table_digest`
        computed at warm-up, which ``info`` also carries."""
        try:
            self.warmup()
        except Exception as exc:  # a backend too sick to even warm up
            return error_response(request_id, "internal",
                                  f"warmup failed: {type(exc).__name__}: "
                                  f"{exc}")
        table = self._table
        return {"id": request_id, "ok": True, "table": {
            "k": self.config.table_k,
            "vertices": [int(v) for v in table],
            "ids": [ids.tolist() for ids, _ in table.values()],
            "scores": [scores.tolist() for _, scores in table.values()],
            "sha256": self._table_sha256}}

    def stats(self, request_id: Any = None) -> dict:
        """Answer the ``stats`` op: the process's instruments, live.

        One registry snapshot plus the span aggregate — every row read
        under its instrument's lock, so each row is internally
        consistent even while worker threads are mid-observation (not a
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
