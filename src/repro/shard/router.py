"""The scatter/gather front door (``repro route``).

:class:`ShardRouter` speaks the exact JSONL protocol of
``repro serve --listen`` (:mod:`repro.netserve.protocol`) on its client
side.  A client that worked against a single server works against the
router unchanged — same requests, same response schema, and
*bit-identical* response payloads (DESIGN.md §14).

A **hit** (``top_k <= table_k``) is answered by the router alone.  At
boot it fetches each worker's answer table once (the ``table`` control
op, checked against its sha256) and merges the slices with
:func:`~repro.shard.partition.merge_matches` into the unsharded table.
A hit is a slice of it: no fan-out, no task, no shard span — and it
stays exact while a shard is dead, because that shard's slice is
already merged.  A slot that comes back at a new address has its slice
refetched in the background; a changed digest re-merges.  A fetch that
fails leaves no table, and then every request scatters.

Everything else — past-table requests, requests the shared field
checks (:func:`~repro.serve.service.parse_query`) reject, and every
request while there is no table — fans out to every shard worker on
the back side, and the router merges the per-shard top-k lists with
the shared ``(-score, image id)`` total order
(:mod:`repro.shard.partition`).  So the fleet buys fault isolation and
past-table capacity, not hit capacity.

The headline of the fan-out is what happens when shards misbehave:

* **per-shard circuit breakers** — each shard's calls run through its
  own :class:`~repro.serve.breaker.CircuitBreaker`; a shard that keeps
  failing or timing out is skipped entirely for the cooldown instead
  of taxing every request with a doomed wait;
* **hedged retries** — when a shard has not answered by
  ``hedge_fraction`` of its budget, the router re-sends the query on a
  fresh one-shot connection (never queued behind the stalled pooled
  socket); first answer wins, and a shard that answers neither in
  time is marked *late* (a breaker failure), not waited on;
* **partial-result degradation** — open-breaker/late/dead shards cost
  coverage, not availability: the router answers from the shards that
  did respond, typed ``degraded: true, reason: "partial"`` with
  ``shards_answered``/``shards_total``, so a merged answer never
  claims more coverage than it has.  Only when *no* shard answers
  does a request fail (typed ``unavailable``);
* **deadline budgets** — a request's ``budget_ms`` is forwarded to the
  shards verbatim (their serve-side deadline machinery applies
  unchanged) and additionally caps how long the router itself waits,
  so the router never holds a request past what the client paid for.

Graceful drain (SIGTERM/SIGINT) is ordered: stop accepting → finish
every in-flight fan-out and flush → close shard connections → SIGTERM
the workers through the supervisor and reap them → exit 0.

Everything observable exports through the ordinary registry:
``shard.router.*`` (requests, table hits, partials, sheds, drain) and
``shard.<slot>.*`` (latency, hedges, lates, breaker state, restarts
from the supervisor) — one OpenMetrics snapshot shows the whole fleet.

The router is also the fleet's observability front door (DESIGN.md
§15): every fan-out propagates a trace context to each shard attempt
and stitches the returned worker subtrees into one cross-process
timeline (hedged retries become sibling ``attempt/*`` spans with a
``hedge_won`` event; a shard that answers nothing stitchable leaves a
typed ``trace_gap``), and the ``stats`` op answers with a live,
aggregated scrape of every worker — counters summed, bucket histograms
merged, gauges/spans labeled ``shard="<slot>"``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..netserve.lineserver import LineServer
from ..obs import get_logger, registry, span_snapshot
from ..obs.scrape import aggregate_fleet
from ..obs.trace import (FLAG_DEGRADED, FLAG_ERROR, SamplePolicy, Tracer,
                         shift_span_row, trace_recorder)
from ..serve.breaker import STATE_CODES, CircuitBreaker
from ..serve.deadline import is_budget_ms
from ..serve.errors import BadRequest, error_response
from ..serve.service import parse_query, parse_trace_context, table_digest
from .client import ShardClient, ShardUnavailable
from .partition import merge_matches

__all__ = ["RouterConfig", "ShardRouter"]

_log = get_logger("repro.shard.router")

#: how often the router looks for a slot that came back at a new address
#: (whose table slice it then refetches)
_HEAL_POLL_S = 0.1


@dataclasses.dataclass(frozen=True)
class _Slice:
    """One ``table`` op payload, decoded and checked against its digest:
    per vertex (table order), the shard's owned matches, best first."""

    k: int
    vertices: Tuple[int, ...]
    rows: Tuple[List[dict], ...]
    sha256: str

    @classmethod
    def decode(cls, payload: dict) -> "_Slice":
        """Raises ``ValueError`` on a malformed payload or a digest that
        does not match what was decoded."""
        k, vertices = payload.get("k"), payload.get("vertices")
        ids, scores = payload.get("ids"), payload.get("scores")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1 \
                or not all(isinstance(field, list)
                           for field in (vertices, ids, scores)) \
                or not len(vertices) == len(ids) == len(scores) \
                or any(not isinstance(a, list) or not isinstance(b, list)
                       or len(a) != len(b) for a, b in zip(ids, scores)):
            raise ValueError("malformed table payload")
        sha256 = table_digest(vertices, zip(ids, scores))
        if sha256 != payload.get("sha256"):
            raise ValueError("table digest mismatch")
        return cls(k, tuple(vertices),
                   tuple([{"image": image, "score": score}
                          for image, score in zip(row_ids, row_scores)]
                         for row_ids, row_scores in zip(ids, scores)),
                   sha256)


@dataclasses.dataclass(frozen=True)
class _AnswerTable:
    """The unsharded answer table, merged from every shard's slice, plus
    the ``info`` fields :func:`parse_query` needs to tell a hit."""

    k: int
    rows: Dict[int, List[dict]]
    sha256: str
    images: int
    top_k_default: int

    def payload(self) -> dict:
        """The ``table`` op body — the same shape a worker answers."""
        return {"k": self.k, "vertices": list(self.rows),
                "ids": [[m["image"] for m in row]
                        for row in self.rows.values()],
                "scores": [[m["score"] for m in row]
                           for row in self.rows.values()],
                "sha256": self.sha256}


@dataclasses.dataclass
class RouterConfig:
    """Tuning knobs of the scatter/gather front end."""

    #: bind address; port 0 binds an ephemeral port (tests)
    host: str = "127.0.0.1"
    port: int = 0
    #: ceiling on how long the router waits for any shard, and the
    #: effective budget for requests that carry none
    shard_timeout_ms: float = 2000.0
    #: fraction of the shard budget after which an unanswered shard is
    #: hedged on a fresh connection; >= 1 disables hedging
    hedge_fraction: float = 0.5
    #: per-connection outstanding-request cap (typed shed beyond it)
    conn_inflight: int = 64
    #: budget of the proxied ``info`` handshake
    info_timeout_ms: float = 2000.0
    #: seconds the drain waits for in-flight fan-outs to finish
    drain_timeout_s: float = 30.0
    #: per-shard circuit breaker: sliding window (calls)
    breaker_window: int = 8
    #: per-shard circuit breaker: failure rate that opens it
    breaker_failure_threshold: float = 0.5
    #: per-shard circuit breaker: minimum calls before it can open
    breaker_min_calls: int = 3
    #: per-shard circuit breaker: open time before a half-open probe
    breaker_cooldown_ms: float = 1000.0
    #: head-sampling rate for route traces (degraded/partial and error
    #: outcomes are always retained regardless)
    trace_sample_rate: float = 1.0
    #: sampled traces retained in the bounded recorder (newest win)
    trace_capacity: int = 256
    #: budget of one shard's ``stats`` scrape during fleet aggregation
    stats_timeout_ms: float = 5000.0

    def __post_init__(self) -> None:
        if self.shard_timeout_ms <= 0:
            raise ValueError("shard_timeout_ms must be positive")
        if self.hedge_fraction <= 0:
            raise ValueError("hedge_fraction must be positive "
                             "(>= 1 disables hedging)")
        if self.conn_inflight < 1:
            raise ValueError("conn_inflight must be at least 1")
        if self.info_timeout_ms <= 0:
            raise ValueError("info_timeout_ms must be positive")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be at least 1")
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ValueError("breaker_failure_threshold must be in (0, 1]")
        if self.breaker_min_calls < 1:
            raise ValueError("breaker_min_calls must be at least 1")
        if self.breaker_cooldown_ms <= 0:
            raise ValueError("breaker_cooldown_ms must be positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be at least 1")
        if self.stats_timeout_ms <= 0:
            raise ValueError("stats_timeout_ms must be positive")


class ShardRouter(LineServer):
    """Scatter/gather over an *endpoint provider*: the shared line
    server whose backend is N services.

    ``endpoints`` supplies the fleet: ``count`` (total slots),
    ``address_of(slot)`` (``None`` while a worker is down — the
    supervisor's restarts surface here as address changes), and
    optionally ``live_count()`` (for the info payload) and ``stop()``
    (called at the tail of the drain; the supervisor's ordered
    SIGTERM + reap).  Tests pass a trivial static provider; production
    passes a :class:`~repro.shard.supervisor.WorkerSupervisor`.
    """

    def __init__(self, endpoints: Any,
                 config: Optional[RouterConfig] = None,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(config if config is not None else RouterConfig(),
                         metric_prefix="shard.router")
        self.endpoints = endpoints
        if tracer is None:
            trace_recorder().set_capacity(self.config.trace_capacity)
            tracer = Tracer(policy=SamplePolicy(
                rate=self.config.trace_sample_rate))
        self.tracer = tracer
        cooldown = self.config.breaker_cooldown_ms / 1000.0
        self._breakers = [
            CircuitBreaker(f"shard{slot}", window=self.config.breaker_window,
                           failure_threshold=(
                               self.config.breaker_failure_threshold),
                           min_calls=self.config.breaker_min_calls,
                           cooldown=cooldown)
            for slot in range(endpoints.count)]
        self._clients: List[ShardClient] = []
        self._fanouts: Set[asyncio.Task] = set()
        self._info_cache: Optional[dict] = None
        #: per slot: its checked table slice, and the address it was
        #: (last) fetched from
        self._slices: List[Optional[_Slice]] = [None] * endpoints.count
        self._sliced_from: List[Optional[Tuple[str, int]]] = \
            [None] * endpoints.count
        #: the merged table hits are answered from; None = scatter all
        self._table: Optional[_AnswerTable] = None
        self._table_tasks: Set[asyncio.Task] = set()

    # -- the line server's backend ------------------------------------------
    async def _open(self) -> None:
        self._clients = [
            ShardClient(slot, lambda slot=slot:
                        self.endpoints.address_of(slot))
            for slot in range(self.endpoints.count)]
        await self._load_table()
        self._spawn(self._watch_slots())

    async def _close(self) -> bool:
        for task in list(self._table_tasks):  # no more slice refetches
            task.cancel()
        await asyncio.gather(*self._table_tasks, return_exceptions=True)
        # in-flight fan-outs finished with their connections; what is
        # left of the ordered drain is the back side
        for client in self._clients:  # close shard connections
            await client.close()
        if hasattr(self.endpoints, "stop"):  # SIGTERM workers, reap
            await asyncio.get_running_loop().run_in_executor(
                None, self.endpoints.stop)
        return True

    def submit(self, request: Any, deliver: Callable[[dict], None]) -> None:
        registry().counter("shard.router.requests_total").inc()
        response = self._table_answer(request)
        if response is not None:
            deliver(response)
            return
        task = asyncio.ensure_future(self._answer_and_deliver(request,
                                                              deliver))
        self._fanouts.add(task)
        task.add_done_callback(self._fanouts.discard)

    async def _answer_and_deliver(self, request: Any,
                                  deliver: Callable[[dict], None]) -> None:
        try:
            response = await self._answer(request)
        except Exception as exc:  # isolate a router bug to its request
            registry().counter("shard.router.internal_errors_total").inc()
            _log.error("internal error routing request",
                       error=f"{type(exc).__name__}: {exc}")
            response = self._error(
                request, "internal", f"{type(exc).__name__}: {exc}")
        deliver(response)

    # -- the answer table -----------------------------------------------------
    def _table_answer(self, request: Any) -> Optional[dict]:
        """A hit's whole answer, from the merged table: no task, no
        fan-out, no shard span.  ``None`` when the request is not a hit
        — no table, a request :func:`parse_query` rejects (the workers
        word that error), or ``top_k`` past the table."""
        table = self._table
        if table is None:
            return None
        try:
            query = parse_query(request, vertices=table.rows,
                                images=table.images,
                                top_k_default=table.top_k_default)
        except BadRequest:
            return None
        if query.top_k > table.k:
            return None
        started = time.monotonic()
        trace_id, parent_span, return_spans = parse_trace_context(request)
        trace = self.tracer.start("route.request", trace_id=trace_id,
                                  parent_span_id=parent_span)
        trace.add_event("table", top_k=query.top_k)
        matches = [dict(match)
                   for match in table.rows[query.vertex][:query.top_k]]
        elapsed_ms = (time.monotonic() - started) * 1e3
        reg = registry()
        reg.counter("shard.router.ok_total").inc()
        reg.counter("shard.router.table_hits_total").inc()
        reg.histogram("shard.router.request_ms").observe(elapsed_ms)
        response = {"id": request.get("id"), "ok": True,
                    "vertex": query.vertex, "tier": "full",
                    "degraded": False, "matches": matches,
                    "elapsed_ms": round(elapsed_ms, 3)}
        return self._traced(trace, response, return_spans)

    def _spawn(self, coroutine: Any) -> None:
        task = asyncio.ensure_future(coroutine)
        self._table_tasks.add(task)
        task.add_done_callback(self._table_tasks.discard)

    async def _fetch_slice(self, slot: int) -> Optional[_Slice]:
        """Slot's checked table slice, or ``None`` after a warning: a
        fetch that fails, times out, overflows the response line cap or
        fails its digest check is no slice at all."""
        timeout = self.config.info_timeout_ms / 1000.0
        try:
            return _Slice.decode(await asyncio.wait_for(
                self._clients[slot].control("table", timeout=timeout),
                timeout))
        except (ShardUnavailable, asyncio.TimeoutError, ValueError,
                TypeError, OverflowError) as exc:
            _log.warning("table slice fetch failed; scattering hits",
                         slot=slot, error=f"{type(exc).__name__}: {exc}")
            return None

    async def _load_table(self) -> None:
        """At boot: one ``table`` op per shard, merged once."""
        self._sliced_from = [self.endpoints.address_of(slot)
                             for slot in range(self.endpoints.count)]
        _, *self._slices = await asyncio.gather(
            self._shard_info(), *(self._fetch_slice(slot)
                                  for slot in range(self.endpoints.count)))
        await self._merge()

    async def _merge(self) -> None:
        """Publish the merge of every slice, or no table at all when a
        slice is missing or the slices disagree.  Each shard lists its
        owned matches in the one total order ``(-score, image id)``, so
        the best ``k`` of the union lie inside the slices: a merged row
        cut at ``top_k <= k`` is the unsharded answer (DESIGN.md §14)."""
        slices = self._slices
        if any(piece is None for piece in slices):
            self._table = None  # the failed fetch has warned
            return
        info = await self._shard_info()
        if info is None or not isinstance(info.get("images"), int) \
                or not isinstance(info.get("top_k_default"), int) \
                or len({(piece.k, piece.vertices) for piece in slices}) != 1:
            _log.warning("shard tables disagree or no shard info; "
                         "scattering hits")
            self._table = None
            return
        k, vertices = slices[0].k, slices[0].vertices
        rows = {vertex: merge_matches([piece.rows[i] for piece in slices], k)
                for i, vertex in enumerate(vertices)}
        sha256 = table_digest(rows, (([m["image"] for m in row],
                                      [m["score"] for m in row])
                                     for row in rows.values()))
        self._table = _AnswerTable(k, rows, sha256, info["images"],
                                   max(1, info["top_k_default"]))
        _log.info("answering hits from the merged table", k=k,
                  vertices=len(rows), sha256=sha256[:12])

    async def _watch_slots(self) -> None:
        """Refetch, once and in the background, the slice of a slot that
        came back at a new address; hits read the current table
        meanwhile.  A dead slot (address ``None``) keeps its slice."""
        while True:
            await asyncio.sleep(_HEAL_POLL_S)
            for slot in range(self.endpoints.count):
                address = self.endpoints.address_of(slot)
                if address is not None \
                        and address != self._sliced_from[slot]:
                    self._sliced_from[slot] = address
                    self._spawn(self._refetch(slot))

    async def _refetch(self, slot: int) -> None:
        fresh = await self._fetch_slice(slot)
        stale = self._slices[slot]
        self._slices[slot] = fresh
        changed = fresh is not None and stale is not None \
            and fresh.sha256 != stale.sha256
        if fresh is not None and not changed and self._table is not None:
            return  # the respawned worker cut the same slice
        await self._merge()
        if changed:
            registry().counter("shard.router.table_changed_total").inc()
            _log.warning("table slice changed on heal; re-merged",
                         slot=slot, sha256=fresh.sha256[:12])

    # -- scatter/gather -----------------------------------------------------
    async def _answer(self, request: Any) -> dict:
        cfg = self.config
        reg = registry()
        loop = asyncio.get_running_loop()
        started = loop.time()
        if not isinstance(request, dict):
            # same wording the serve layer's validation uses
            return self._error(None, "bad_request",
                               "request must be a JSON object")
        request_id = request.get("id")
        # join the client's trace when it sent a context, else mint —
        # either way the fan-out below propagates *this* trace's id to
        # every shard attempt (DESIGN.md §15).  No thread-local
        # activation: this is asyncio, spans are passed explicitly.
        trace_id, parent_span, return_spans = parse_trace_context(request)
        trace = self.tracer.start("route.request", trace_id=trace_id,
                                  parent_span_id=parent_span)
        budget_s = cfg.shard_timeout_ms / 1000.0
        budget_ms = request.get("budget_ms")
        if is_budget_ms(budget_ms):
            # the shard applies the same budget server-side (the field
            # is forwarded verbatim); this caps the router's own wait
            budget_s = min(budget_s, float(budget_ms) / 1000.0)
        hedge_after_s = budget_s * cfg.hedge_fraction \
            if cfg.hedge_fraction < 1.0 else None
        count = self.endpoints.count
        results = await asyncio.gather(
            *(self._call_shard(slot, request, budget_s, hedge_after_s,
                               trace)
              for slot in range(count)))
        elapsed_ms = (loop.time() - started) * 1e3
        reg.histogram("shard.router.request_ms").observe(elapsed_ms)
        oks = [r for r in results if r is not None and r.get("ok")]
        errors = [r for r in results if r is not None and not r.get("ok")]
        if oks:
            response = await self._merged_response(request, request_id,
                                                   oks, count, elapsed_ms)
        elif errors:
            # every answering shard refused identically (bad request,
            # shed): forward the lowest slot's error under our id
            error = errors[0].get("error")
            reg.counter("shard.router.error_total").inc()
            if isinstance(error, dict) and isinstance(error.get("type"), str):
                reg.counter(f"shard.router.error.{error['type']}").inc()
            response = {"id": request_id, "ok": False, "error": error,
                        "elapsed_ms": round(elapsed_ms, 3)}
        else:
            reg.counter("shard.router.unavailable_total").inc()
            response = self._error(
                request, "unavailable",
                f"no shard answered (0/{count})")
        # flags drive forced retention: a partial/degraded or failed
        # fan-out is kept even at sample rate 0
        if not response.get("ok"):
            trace.flag(FLAG_ERROR)
        elif response.get("degraded"):
            trace.flag(FLAG_DEGRADED)
        return self._traced(trace, response, return_spans)

    @staticmethod
    def _traced(trace: Any, response: dict, return_spans: bool) -> dict:
        """Finish ``trace`` and stamp ``response`` with its id (and, when
        asked and kept, its spans)."""
        kept = trace.finish()
        if trace.trace_id is not None:
            response["trace_id"] = trace.trace_id
            if return_spans and kept:
                response["trace"] = trace.to_wire()
        return response

    async def _merged_response(self, request: dict, request_id: Any,
                               oks: List[dict], count: int,
                               elapsed_ms: float) -> dict:
        reg = registry()
        top_k = request.get("top_k")
        if isinstance(top_k, bool) or not isinstance(top_k, int) \
                or top_k < 1:
            # shards answered, so at least one is reachable for info;
            # their default is authoritative (all spawned identically)
            top_k = await self._top_k_default(
                max(len(r.get("matches", [])) for r in oks))
        matches = merge_matches([r.get("matches", []) for r in oks], top_k)
        partial = len(oks) < count
        # shard bodies come from other processes: one that says it is
        # degraded makes the merged answer degraded too
        shard_degraded = [r for r in oks if r.get("degraded")]
        degraded = partial or bool(shard_degraded)
        response = {"id": request_id, "ok": True,
                    "vertex": oks[0].get("vertex"), "tier": "full",
                    "degraded": degraded, "matches": matches,
                    "elapsed_ms": round(elapsed_ms, 3)}
        reg.counter("shard.router.ok_total").inc()
        if partial:
            reg.counter("shard.router.partial_total").inc()
            response["reason"] = "partial"
            response["shards_answered"] = len(oks)
            response["shards_total"] = count
        elif degraded:
            reasons = [r.get("reason") for r in shard_degraded
                       if r.get("reason")]
            if reasons:
                response["reason"] = reasons[0]
        if degraded:
            reg.counter("shard.router.degraded_total").inc()
        return response

    def _forwarded(self, request: dict, trace: Any,
                   attempt_span: Any) -> dict:
        """The request body one attempt sends downstream.  With router
        tracing on, the attempt's span becomes the worker-side parent
        and the worker is asked to ship its spans back for stitching;
        with tracing off the request (including any client-supplied
        context) passes through untouched."""
        if trace.trace_id is None or attempt_span is None:
            return request
        body = dict(request)
        body["trace"] = {"trace_id": trace.trace_id,
                         "parent_span": attempt_span.span_id,
                         "return_spans": True}
        return body

    async def _call_shard(self, slot: int, request: dict, budget_s: float,
                          hedge_after_s: Optional[float],
                          trace: Any) -> Optional[dict]:
        """One shard's answer, through its breaker, with hedging.
        Returns the shard's response dict, or ``None`` when the shard
        was skipped (open breaker), failed, or never answered in time —
        the partial-degradation cases.

        Tracing: the shard gets a ``shard/<slot>`` span; every attempt
        (pooled, hedge) is a sibling child span carrying the trace
        context downstream.  The winner's returned subtree is re-based
        and grafted under its attempt span; a shard that answers with
        nothing stitchable leaves a typed ``trace_gap`` event instead —
        a hole in the timeline is data, not a crash."""
        reg = registry()
        breaker = self._breakers[slot]
        reg.gauge(f"shard.{slot}.breaker_state").set(
            float(STATE_CODES[breaker.state()]))
        shard_span = trace.open_span(f"shard/{slot}", trace.root) \
            if trace.trace_id is not None else None
        if not breaker.allows_call():
            reg.counter(f"shard.{slot}.skipped_total").inc()
            if shard_span is not None:
                trace.add_event("trace_gap", shard_span, slot=slot,
                                reason="skipped")
                trace.close_span(shard_span)
            return None
        client = self._clients[slot]
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline_at = started + budget_s
        attempt_meta: Dict[asyncio.Task, Tuple[str, Any]] = {}

        def launch(kind: str, call, timeout: float) -> asyncio.Task:
            attempt_span = trace.open_span(f"attempt/{kind}", shard_span) \
                if shard_span is not None else None
            task = asyncio.ensure_future(
                call(self._forwarded(request, trace, attempt_span),
                     timeout=timeout))
            attempt_meta[task] = (kind, attempt_span)
            return task

        attempts: Set[asyncio.Task] = {
            launch("pooled", client.request, budget_s)}
        hedged = hedge_after_s is None
        response: Optional[dict] = None
        winner: Tuple[str, Any] = ("pooled", None)
        failed: Optional[BaseException] = None
        try:
            while attempts and response is None:
                now = loop.time()
                remaining = deadline_at - now
                if remaining <= 0:
                    break
                if not hedged:
                    remaining = min(remaining,
                                    started + hedge_after_s - now)
                done, attempts = await asyncio.wait(
                    attempts, timeout=max(remaining, 0.001),
                    return_when=asyncio.FIRST_COMPLETED)
                for attempt in done:
                    kind, attempt_span = attempt_meta.pop(
                        attempt, ("pooled", None))
                    if attempt_span is not None:
                        trace.close_span(attempt_span)
                    if attempt.cancelled():
                        continue
                    error = attempt.exception()
                    if error is None:
                        if response is None:
                            response = attempt.result()
                            winner = (kind, attempt_span)
                    elif not isinstance(error, asyncio.TimeoutError):
                        # a timed-out attempt is "late", not "failed" —
                        # the deadline accounting below covers it
                        failed = error
                        if attempt_span is not None:
                            trace.add_event(
                                "attempt_failed", attempt_span,
                                error=type(error).__name__)
                if response is None and not hedged \
                        and loop.time() >= started + hedge_after_s:
                    hedged = True
                    remaining = deadline_at - loop.time()
                    if remaining > 0:
                        reg.counter(f"shard.{slot}.hedges_total").inc()
                        attempts.add(launch("hedge", client.request_once,
                                            remaining))
        finally:
            for attempt in attempts:
                attempt.cancel()
            if attempts:
                await asyncio.gather(*attempts, return_exceptions=True)
            for _, attempt_span in attempt_meta.values():
                if attempt_span is not None:
                    trace.close_span(attempt_span)
        latency_ms = (loop.time() - started) * 1e3
        reg.histogram(f"shard.{slot}.latency_ms").observe(latency_ms)
        if response is not None:
            breaker.record_success()
            reg.counter(f"shard.{slot}.answered_total").inc()
            subtree = response.pop("trace", None)
            if shard_span is not None:
                win_kind, win_span = winner
                if win_kind == "hedge":
                    trace.add_event("hedge_won", shard_span, slot=slot,
                                    winner="hedge")
                target = win_span if win_span is not None else shard_span
                if isinstance(subtree, dict) \
                        and isinstance(subtree.get("spans"), dict):
                    delta_ms = (target.start - trace.root.start) * 1e3
                    row = shift_span_row(subtree["spans"], delta_ms)
                    row["process"] = f"shard{slot}"
                    trace.graft(target, row)
                else:
                    # worker sampled its side away (or predates
                    # propagation): a typed hole, not a crash
                    trace.add_event("trace_gap", target, slot=slot,
                                    reason="unsampled")
                trace.close_span(shard_span)
            return response
        breaker.record_failure()
        if failed is None:
            # no attempt errored — the shard simply never answered
            reg.counter(f"shard.{slot}.late_total").inc()
            _log.warning("shard late", slot=slot,
                         budget_ms=round(budget_s * 1e3, 1))
        else:
            reg.counter(f"shard.{slot}.failed_total").inc()
            detail = f"{type(failed).__name__}: {failed}" \
                if not isinstance(failed, ShardUnavailable) else str(failed)
            _log.warning("shard call failed", slot=slot, error=detail)
        if shard_span is not None:
            trace.add_event("trace_gap", shard_span, slot=slot,
                            reason="late" if failed is None else "failed")
            trace.close_span(shard_span)
        return None

    # -- control responses --------------------------------------------------
    async def _shard_info(self) -> Optional[dict]:
        """One worker's info payload (cached after the first success) —
        the fleet is homogeneous, so any live shard speaks for all on
        repository metadata."""
        if self._info_cache is not None:
            return self._info_cache
        timeout = self.config.info_timeout_ms / 1000.0
        for slot in range(self.endpoints.count):
            try:
                answer = await self._clients[slot].request(
                    {"op": "info"}, timeout=timeout)
            except (ShardUnavailable, asyncio.TimeoutError):
                continue
            if isinstance(answer, dict) and answer.get("ok"):
                info = dict(answer.get("info", {}))
                info.pop("shard", None)  # per-worker detail, not fleet
                cap = info.get("conn_inflight")
                if isinstance(cap, int) and not isinstance(cap, bool) \
                        and cap > 0:
                    # queue at the router what a worker would shed
                    for client in self._clients:
                        client.cap_inflight(cap)
                self._info_cache = info
                return info
        return None

    async def _top_k_default(self, fallback: int) -> int:
        info = await self._shard_info()
        if info is not None and isinstance(info.get("top_k_default"), int):
            return max(1, info["top_k_default"])
        return max(1, fallback)

    async def info(self, request_id: Any) -> dict:
        info = await self._shard_info()
        if info is None:
            return error_response(request_id, "unavailable",
                                  "no shard reachable for info")
        live = self.endpoints.live_count() \
            if hasattr(self.endpoints, "live_count") \
            else sum(1 for b in self._breakers if b.state() != "open")
        payload = dict(info)
        payload["table_sha256"] = self._table.sha256 \
            if self._table is not None else None
        payload["shards"] = {"total": self.endpoints.count, "live": live}
        payload["conn_inflight"] = self.config.conn_inflight  # this door's
        return {"id": request_id, "ok": True, "info": payload}

    def table(self, request_id: Any) -> dict:
        """The merged answer table hits are answered from."""
        if self._table is None:
            return error_response(request_id, "unavailable",
                                  "no answer table: every request is "
                                  "scattered")
        return {"id": request_id, "ok": True, "table": self._table.payload()}

    async def stats(self, request_id: Any) -> dict:
        """Answer ``stats`` with the *fleet's* live snapshot: scrape
        every shard concurrently, aggregate (counters summed, bucket
        histograms merged, gauges/spans labeled per shard —
        :func:`repro.obs.scrape.aggregate_fleet`), and append the
        router's own instruments.  A shard that fails to answer costs
        coverage, not the scrape: it is reported in
        ``stats.shards.answered`` and counted per slot."""
        reg = registry()
        reg.counter("shard.router.stats_total").inc()
        timeout = self.config.stats_timeout_ms / 1000.0

        async def scrape(slot: int) -> Optional[dict]:
            try:
                return await self._clients[slot].control("stats",
                                                         timeout=timeout)
            except (ShardUnavailable, asyncio.TimeoutError) as exc:
                reg.counter(f"shard.{slot}.scrape_failed_total").inc()
                _log.warning("shard scrape failed", slot=slot,
                             error=f"{type(exc).__name__}: {exc}")
                return None

        results = await asyncio.gather(
            *(scrape(slot) for slot in range(self.endpoints.count)))
        per_shard = {str(slot): stats
                     for slot, stats in enumerate(results)}
        stats = aggregate_fleet(per_shard, own_rows=registry().snapshot(),
                                own_spans=span_snapshot())
        if stats.get("captured_unix") is None:
            stats["captured_unix"] = time.time()
        return {"id": request_id, "ok": True, "stats": stats}

    def bad_line(self, error: Exception) -> dict:
        reg = registry()
        reg.counter("shard.router.requests_total").inc()
        reg.counter("shard.router.requests.bad_line").inc()
        return self._error(None, "bad_request", f"invalid JSON: {error}")

    def reject(self, request: Any, code: str, message: str) -> dict:
        """A refusal at the door (a connection's outstanding cap): the
        request never reached :meth:`submit`, so it is offered here."""
        registry().counter("shard.router.requests_total").inc()
        return self._error(request, code, message)

    def _error(self, request: Any, code: str, message: str) -> dict:
        """A typed error answer, counted once under ``error_total`` and
        ``error.<code>`` — the front-door counters ``obs slo`` judges."""
        reg = registry()
        reg.counter("shard.router.error_total").inc()
        reg.counter(f"shard.router.error.{code}").inc()
        request_id = request.get("id") if isinstance(request, dict) else None
        return error_response(request_id, code, message)
