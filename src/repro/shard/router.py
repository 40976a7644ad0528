"""The scatter/gather front door (``repro route``).

:class:`ShardRouter` speaks the exact JSONL protocol of
``repro serve --listen`` (:mod:`repro.netserve.protocol`) on its client
side.  A client that worked against a single server works against the
router unchanged — same requests, same response schema, and
*bit-identical* response payloads (DESIGN.md §14).

The router opens only once it holds the unsharded *answer table*: at
boot it fetches the head of each worker's table (the ``table`` control
op, checked against its sha256) and merges the slices with
:func:`~repro.shard.partition.merge_matches`.  A fetch or merge that
fails refuses the boot (:class:`RouterBootError`).  Every request then
takes one of three straight paths:

* a request the shared field checks (:func:`~repro.serve.service.
  parse_query`) reject gets the router's own typed ``bad_request``, in
  the workers' envelope;
* a **hit** (``top_k <= table_k``, the ``table`` op's depth
  :data:`~repro.netserve.protocol.TABLE_K`) is a slice of the merged
  table: no fan-out, no task, no shard span — and it stays exact while
  a shard is dead, because that shard's slice is already merged;
* a deeper request asks every shard once, over its pooled connection;
  each answers from its own table (every vertex's whole owned
  ranking), and the router merges the per-shard lists with the shared
  ``(-score, image id)`` total order (:mod:`repro.shard.partition`).
  The wait is bounded by ``shard_timeout_ms``; a shard that fails or
  is late makes the answer typed ``unavailable``, naming the slots
  that did not answer.  A routed answer is whole or it is an error.

A slot that comes back at a new address has its slice refetched in the
background; a changed digest re-merges, and a refetch that fails keeps
the slot's previous slice.

Graceful drain (SIGTERM/SIGINT) is ordered: stop accepting → finish
every in-flight fan-out and flush → close shard connections → SIGTERM
the workers through the supervisor and reap them → exit 0.

Everything observable exports through the ordinary registry:
``shard.router.*`` (requests, table hits, unavailable answers, sheds,
drain) and ``shard.<slot>.*`` (latency, answered, failed and late
calls, restarts from the supervisor) — one OpenMetrics snapshot shows
the whole fleet.

The router is also the fleet's observability front door (DESIGN.md
§15): every fan-out propagates a trace context to each shard and
stitches the returned worker subtrees under their ``shard/<slot>``
spans into one cross-process timeline (a shard that answers nothing
stitchable leaves a typed ``trace_gap``), and the ``stats`` op answers
with a live, aggregated scrape of every worker — counters summed,
bucket histograms merged, gauges/spans labeled ``shard="<slot>"``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..netserve.lineserver import LineServer
from ..obs import get_logger, registry, span_snapshot
from ..obs.scrape import aggregate_fleet
from ..obs.trace import (FLAG_ERROR, SamplePolicy, Tracer, shift_span_row,
                         trace_recorder)
from ..serve.errors import BadRequest, error_response
from ..serve.service import parse_query, parse_trace_context, table_digest
from .client import ShardClient, ShardUnavailable
from .partition import merge_matches

__all__ = ["RouterBootError", "RouterConfig", "ShardRouter"]

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


class RouterBootError(RuntimeError):
    """The router could not build its answer table, so it never opens."""


@dataclasses.dataclass
class RouterConfig:
    """Tuning knobs of the scatter/gather front end."""

    #: bind address; port 0 binds an ephemeral port (tests)
    host: str = "127.0.0.1"
    port: int = 0
    #: how long a deep request waits for any shard's answer
    shard_timeout_ms: float = 2000.0
    #: per-connection outstanding-request cap (typed shed beyond it)
    conn_inflight: int = 64
    #: budget of each ``info`` and ``table`` fetch (at boot, on a heal)
    info_timeout_ms: float = 2000.0
    #: seconds the drain waits for in-flight fan-outs to finish
    drain_timeout_s: float = 30.0
    #: head-sampling rate for route traces (error outcomes are always
    #: retained regardless)
    trace_sample_rate: float = 1.0
    #: sampled traces retained in the bounded recorder (newest win)
    trace_capacity: int = 256
    #: budget of one shard's ``stats`` scrape during fleet aggregation
    stats_timeout_ms: float = 5000.0

    def __post_init__(self) -> None:
        if self.shard_timeout_ms <= 0:
            raise ValueError("shard_timeout_ms must be positive")
        if self.conn_inflight < 1:
            raise ValueError("conn_inflight must be at least 1")
        if self.info_timeout_ms <= 0:
            raise ValueError("info_timeout_ms must be positive")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
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
    optionally ``stop()`` (called at the tail of the drain; the
    supervisor's ordered SIGTERM + reap).  Tests pass a trivial static
    provider; production passes a
    :class:`~repro.shard.supervisor.WorkerSupervisor`.  Every slot must
    answer ``info`` and ``table`` when the router opens.
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
        self._clients: List[ShardClient] = []
        self._fanouts: Set[asyncio.Task] = set()
        self._info_cache: Optional[dict] = None
        #: per slot: its checked table slice, and the address it was
        #: (last) fetched from
        self._slices: List[Optional[_Slice]] = [None] * endpoints.count
        self._sliced_from: List[Optional[Tuple[str, int]]] = \
            [None] * endpoints.count
        #: the merged table; set before the router opens
        self._table: Optional[_AnswerTable] = None
        self._table_tasks: Set[asyncio.Task] = set()

    # -- the line server's backend ------------------------------------------
    async def _open(self) -> None:
        self._clients = [
            ShardClient(slot, lambda slot=slot:
                        self.endpoints.address_of(slot))
            for slot in range(self.endpoints.count)]
        await self._load_table()
        if self._table is None:  # the failed fetch or merge has warned
            for client in self._clients:
                await client.close()
            _log.error("no answer table; refusing to boot")
            raise RouterBootError(
                "could not fetch and merge every shard's answer table")
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
        table = self._table
        try:
            query = parse_query(request, vertices=table.rows,
                                images=table.images,
                                top_k_default=table.top_k_default)
        except BadRequest as exc:
            response = self._bad_request(request, exc)
        else:
            response = self._table_answer(request, query)
        if response is not None:
            deliver(response)
            return
        task = asyncio.ensure_future(self._answer_and_deliver(
            request, query, deliver))
        self._fanouts.add(task)
        task.add_done_callback(self._fanouts.discard)

    async def _answer_and_deliver(self, request: dict, query: Any,
                                  deliver: Callable[[dict], None]) -> None:
        try:
            response = await self._answer(request, query)
        except Exception as exc:  # isolate a router bug to its request
            registry().counter("shard.router.internal_errors_total").inc()
            _log.error("internal error routing request",
                       error=f"{type(exc).__name__}: {exc}")
            response = self._error(
                request, "internal", f"{type(exc).__name__}: {exc}")
        deliver(response)

    def _bad_request(self, request: Any, error: BadRequest) -> dict:
        """The router's own answer to a request :func:`parse_query`
        rejects: the workers' error envelope, traced and flagged as a
        worker traces one."""
        trace_id, parent_span, return_spans = parse_trace_context(request)
        trace = self.tracer.start("route.request", trace_id=trace_id,
                                  parent_span_id=parent_span)
        trace.add_event("error", code=error.code)
        trace.flag(FLAG_ERROR)
        return self._traced(trace, self._error(request, error.code,
                                               str(error)), return_spans)

    # -- the answer table -----------------------------------------------------
    def _table_answer(self, request: dict, query: Any) -> Optional[dict]:
        """A hit's whole answer, from the merged table: no task, no
        fan-out, no shard span.  ``None`` when ``top_k`` is past the
        table."""
        table = self._table
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
            _log.warning("table slice fetch failed", slot=slot,
                         error=f"{type(exc).__name__}: {exc}")
            return None

    async def _load_table(self) -> None:
        """At boot: one ``table`` op per shard, merged once."""
        self._sliced_from = [self.endpoints.address_of(slot)
                             for slot in range(self.endpoints.count)]
        _, *self._slices = await asyncio.gather(
            self._shard_info(), *(self._fetch_slice(slot)
                                  for slot in range(self.endpoints.count)))
        await self._merge()

    async def _merge(self) -> bool:
        """Publish the merge of every slice and say whether it did; when
        a slice is missing or the slices disagree, the current table (at
        boot: none) stays.  Each shard lists its owned matches in the
        one total order ``(-score, image id)``, so the best ``k`` of the
        union lie inside the slices: a merged row cut at ``top_k <= k``
        is the unsharded answer (DESIGN.md §14)."""
        slices = self._slices
        if any(piece is None for piece in slices):
            return False  # the failed fetch has warned
        info = await self._shard_info()
        if info is None or not isinstance(info.get("images"), int) \
                or not isinstance(info.get("top_k_default"), int) \
                or len({(piece.k, piece.vertices) for piece in slices}) != 1:
            _log.warning("shard tables disagree or no shard info")
            return False
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
        return True

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
        """A failed refetch keeps the slot's previous slice, and so does
        one that does not merge with the others."""
        fresh = await self._fetch_slice(slot)
        stale = self._slices[slot]
        if fresh is None or fresh.sha256 == stale.sha256:
            return  # warned, or the respawned worker cut the same slice
        self._slices[slot] = fresh
        if not await self._merge():
            self._slices[slot] = stale
            return
        registry().counter("shard.router.table_changed_total").inc()
        _log.warning("table slice changed on heal; re-merged",
                     slot=slot, sha256=fresh.sha256[:12])

    # -- scatter/gather -----------------------------------------------------
    async def _answer(self, request: dict, query: Any) -> dict:
        """A deep request: every shard asked once, the answers merged —
        or typed ``unavailable`` when any shard failed or was late."""
        reg = registry()
        loop = asyncio.get_running_loop()
        started = loop.time()
        # join the client's trace when it sent a context, else mint —
        # either way the fan-out below propagates *this* trace's id to
        # every shard (DESIGN.md §15).  No thread-local activation:
        # this is asyncio, spans are passed explicitly.
        trace_id, parent_span, return_spans = parse_trace_context(request)
        trace = self.tracer.start("route.request", trace_id=trace_id,
                                  parent_span_id=parent_span)
        timeout = self.config.shard_timeout_ms / 1000.0
        count = self.endpoints.count
        results = await asyncio.gather(
            *(self._call_shard(slot, request, timeout, trace)
              for slot in range(count)))
        elapsed_ms = (loop.time() - started) * 1e3
        reg.histogram("shard.router.request_ms").observe(elapsed_ms)
        missing = [str(slot) for slot, result in enumerate(results)
                   if result is None]
        if missing:
            reg.counter("shard.router.unavailable_total").inc()
            response = self._error(
                request, "unavailable",
                f"shard{'s' if len(missing) > 1 else ''} "
                f"{', '.join(missing)} did not answer "
                f"({count - len(missing)} of {count} answered)")
            trace.flag(FLAG_ERROR)  # kept even at sample rate 0
        else:
            reg.counter("shard.router.ok_total").inc()
            response = {"id": request.get("id"), "ok": True,
                        "vertex": query.vertex, "tier": "full",
                        "degraded": False,
                        "matches": merge_matches(
                            [r.get("matches", []) for r in results],
                            query.top_k),
                        "elapsed_ms": round(elapsed_ms, 3)}
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

    async def _call_shard(self, slot: int, request: dict, timeout: float,
                          trace: Any) -> Optional[dict]:
        """One shard's ``ok`` answer over its pooled connection, or
        ``None`` when the call failed (no connection, an error answer)
        or was late.

        Tracing: the shard gets a ``shard/<slot>`` span carrying the
        trace context downstream; the worker's returned subtree is
        re-based and grafted under it.  A shard that answers with
        nothing stitchable leaves a typed ``trace_gap`` event instead —
        a hole in the timeline is data, not a crash."""
        reg = registry()
        shard_span = None
        if trace.trace_id is not None:
            # the shard's span is the worker-side parent, and the worker
            # ships its spans back; with tracing off the request (any
            # client-supplied context included) passes through as is
            shard_span = trace.open_span(f"shard/{slot}", trace.root)
            request = dict(request, trace={
                "trace_id": trace.trace_id,
                "parent_span": shard_span.span_id, "return_spans": True})
        loop = asyncio.get_running_loop()
        started = loop.time()
        response: Optional[dict] = None
        failed: Optional[str] = None
        try:
            response = await self._clients[slot].request(request,
                                                         timeout=timeout)
        except asyncio.TimeoutError:
            pass  # late: counted below
        except ShardUnavailable as exc:
            failed = str(exc)
        if response is not None and not response.get("ok"):
            failed = f"answered {response.get('error')!r}"
            response = None
        reg.histogram(f"shard.{slot}.latency_ms").observe(
            (loop.time() - started) * 1e3)
        if response is not None:
            reg.counter(f"shard.{slot}.answered_total").inc()
            subtree = response.pop("trace", None)
            if shard_span is not None:
                if isinstance(subtree, dict) \
                        and isinstance(subtree.get("spans"), dict):
                    delta_ms = (shard_span.start - trace.root.start) * 1e3
                    row = shift_span_row(subtree["spans"], delta_ms)
                    row["process"] = f"shard{slot}"
                    trace.graft(shard_span, row)
                else:
                    # worker sampled its side away: a typed hole
                    trace.add_event("trace_gap", shard_span, slot=slot,
                                    reason="unsampled")
                trace.close_span(shard_span)
            return response
        if failed is None:
            reg.counter(f"shard.{slot}.late_total").inc()
            _log.warning("shard late", slot=slot,
                         timeout_ms=round(timeout * 1e3, 1))
        else:
            reg.counter(f"shard.{slot}.failed_total").inc()
            _log.warning("shard call failed", slot=slot, error=failed)
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

    def info(self, request_id: Any) -> dict:
        """The workers' repository metadata (fetched at boot), with the
        merged table's digest and the fleet's published addresses."""
        payload = dict(self._info_cache)
        payload["table_sha256"] = self._table.sha256
        payload["shards"] = {
            "total": self.endpoints.count,
            "live": sum(1 for slot in range(self.endpoints.count)
                        if self.endpoints.address_of(slot) is not None)}
        payload["conn_inflight"] = self.config.conn_inflight  # this door's
        return {"id": request_id, "ok": True, "info": payload}

    def table(self, request_id: Any) -> dict:
        """The merged answer table hits are answered from."""
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
