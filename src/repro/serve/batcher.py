"""The dynamic micro-batcher: windowed coalescing of match queries.

Many clients each send single-vertex queries; a query past the answer
table (``top_k > table_k``), served alone, pays for a whole scoring
tile.  The batcher holds each such request for at most one *window*
(``batch_window_ms``), fusing everything that arrives meanwhile into
one :meth:`MatchService.handle_batch` call — N one-vertex tiles become
full tiles — and demultiplexes the positional responses back to their
callers.  Answers are bit-identical to unbatched serving because the
service scores through fixed-shape row tiles (DESIGN.md §13); the
batcher only changes *when* scoring runs, never *what* it computes.

Four latency rules govern the window, in priority order:

1. **Idle and sparse dispatches now** — a request that finds no scoring
   call in flight and nothing pending, while the batcher's own measure
   of recent inter-arrival gaps (:attr:`BatchWindow.sparse`) says no
   companion is due inside a window, goes to the pool at once: no
   window, no flusher hop.  Behind an in-flight call arrivals
   accumulate; the worker that completes it takes them with it if
   arrivals are still sparse.
2. **Full batch beats the window** — the moment ``max_batch`` requests
   are pending the batch flushes, without waiting the window out.
3. **Deadlines beat the window** — a request whose ``budget_ms`` is too
   tight to survive a worst-case window wait (see
   :func:`bypasses_window`) skips coalescing and dispatches alone,
   immediately.  The window is an offer of amortization, never a tax on
   an urgent request.
4. **The window bounds everyone else** — no request waits longer than
   one window for its batch to form.

A fifth rule comes before all four:

5. **Hits never wait** — a request the answer table covers
   (:meth:`MatchService.answer_hit`) is a slice with nothing to fuse,
   so :meth:`MicroBatcher.submit` answers it in the submitting thread:
   it takes no pending slot and never reaches the window or the pool.
   Every door submits here, so every door answers a hit where it read
   the line.

Rule 1 is deliberately not "dispatch whenever idle": under a closed
loop of callers that variant sends the first request of every round
alone and the rest one window later, which costs a scoring tile per
round (DESIGN.md §13 has the measurement).

:class:`BatchWindow` is the pure, clock-free decision core (tested on a
fake clock); :class:`MicroBatcher` adds the real threads: a flusher
that times windows out and a worker pool that runs the fused calls.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Tuple

from ..obs import get_logger, registry
from .deadline import is_budget_ms
from .errors import error_response

__all__ = ["BatchWindow", "MicroBatcher", "bypasses_window",
           "BYPASS_SLACK", "GAP_EWMA_WEIGHT"]

_log = get_logger("repro.netserve.batcher")

#: one held request: (request, deliver, arrival time on the batcher clock)
_Held = Tuple[Any, Callable[[dict], None], float]

#: a request only joins a window if its budget covers at least this
#: many windows — waiting the window out must not eat a large fraction
#: of the budget, or the wait itself manufactures deadline failures
BYPASS_SLACK = 2.0

#: weight of the newest inter-arrival gap in the running share of gaps
#: that fit inside a window (see :attr:`BatchWindow.sparse`)
GAP_EWMA_WEIGHT = 0.2


def bypasses_window(budget_ms: Any, window_ms: float,
                    slack: float = BYPASS_SLACK) -> bool:
    """Should a request with this budget skip the batching window?

    True when ``budget_ms`` is a finite positive budget smaller than
    ``slack`` windows: in the worst case a request waits one full
    window before scoring even starts, so joining the window would
    spend ``1/slack`` (or more) of the budget on queueing.  Unbounded
    or malformed budgets never bypass — malformed ones must flow into
    the service to be answered ``bad_request`` like anywhere else.
    """
    if window_ms <= 0:
        return True  # windowless configuration: everything immediate
    return is_budget_ms(budget_ms) and float(budget_ms) < slack * window_ms


class BatchWindow:
    """Pure batching-decision state: what is pending, what is in flight,
    how fast requests arrive — and from those, when to dispatch.

    Not thread-safe and never reads a clock — callers pass ``now`` in,
    which is what makes the rules testable on a fake clock.
    The window opens when the first item arrives into an empty batch
    and closes ``window_s`` later (or immediately on reaching
    ``max_batch``); it does NOT slide on later arrivals, so a steady
    trickle cannot postpone a flush indefinitely.

    :meth:`arrive`, :meth:`expire` and :meth:`complete` are the three
    events of a batcher's life; each returns ``(rule, items)`` when a
    scoring call must start now — ``rule`` names which of the module's
    rules fired — or ``None``.  Every returned batch counts as in
    flight until its :meth:`complete`.
    """

    def __init__(self, window_s: float, max_batch: int) -> None:
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.window_s = window_s
        self.max_batch = max_batch
        #: scoring calls dispatched and not yet completed
        self.inflight = 0
        #: windowing is over (shutdown began): dispatch everything now
        self.hurried = False
        self._items: List[Any] = []
        self._opened_at: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._companion_share: Optional[float] = None

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: Any, now: float) -> bool:
        """Admit ``item``; returns True when the batch is now full and
        must flush without waiting for the window to expire."""
        if not self._items:
            self._opened_at = now
        self._items.append(item)
        return len(self._items) >= self.max_batch

    def flush_at(self) -> Optional[float]:
        """The absolute time this window expires; None while empty."""
        if self._opened_at is None:
            return None
        return self._opened_at + self.window_s

    def due(self, now: float) -> bool:
        """Has the window expired (or the batch filled) by ``now``?"""
        if not self._items:
            return False
        return len(self._items) >= self.max_batch or \
            now >= self._opened_at + self.window_s

    def drain(self) -> List[Any]:
        """Take every pending item and reset the window."""
        items, self._items = self._items, []
        self._opened_at = None
        return items

    # -- arrival rate ------------------------------------------------------
    @property
    def sparse(self) -> bool:
        """Is no companion expected inside a window?  True while fewer
        than half of recent arrivals came within a window of their
        predecessor (an exponentially weighted share, newest gap
        weighing ``GAP_EWMA_WEIGHT``), and before two arrivals have
        been seen.  Each gap is one vote however long it was, so the
        one pause per round of a closed loop waiting on its own batch
        does not read as sparse traffic."""
        return self._companion_share is None or self._companion_share < 0.5

    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            near = 1.0 if now - self._last_arrival <= self.window_s else 0.0
            share = self._companion_share
            self._companion_share = near if share is None \
                else share + GAP_EWMA_WEIGHT * (near - share)
        self._last_arrival = now

    # -- the three events --------------------------------------------------
    def _dispatch(self, rule: str, items: List[Any]) -> Tuple[str, List[Any]]:
        self.inflight += 1
        return rule, items

    def arrive(self, item: Any, now: float, urgent: bool = False,
               ) -> Optional[Tuple[str, List[Any]]]:
        """A request arrived; ``urgent`` marks a budget too tight for
        the window (:func:`bypasses_window`)."""
        self._observe_arrival(now)
        if urgent:
            return self._dispatch("bypass", [item])
        if self.hurried:
            return self._dispatch("hurry", [item])
        if not self.inflight and not self._items and self.sparse:
            return self._dispatch("eager", [item])
        if self.add(item, now):
            return self._dispatch("full", self.drain())
        return None

    def expire(self, now: float) -> Optional[Tuple[str, List[Any]]]:
        """The flusher looked at the clock: the pending batch, if its
        window ran out (or :attr:`hurried` says not to wait for that)."""
        if self._items and (self.hurried or self.due(now)):
            return self._dispatch("window", self.drain())
        return None

    def complete(self) -> Optional[Tuple[str, List[Any]]]:
        """A dispatched call finished.  If that leaves the scorer idle
        with requests pending and arrivals sparse, the completing worker
        takes them along instead of leaving them to the window."""
        self.inflight -= 1
        if self._items and not self.inflight and self.sparse:
            return self._dispatch("eager", self.drain())
        return None


class MicroBatcher:
    """Thread-safe batching front door over a ``MatchService``.

    ``submit(request, deliver)`` is the one place a match request is
    admitted, for every door (stdio, TCP, shard workers, the in-process
    load driver): a table hit is answered there and then, anything else
    is queued and handed to a scoring thread.  ``deliver`` is called
    exactly once with the JSON response dict — inline for a hit, from a
    worker thread otherwise.  Past ``max_pending`` requests queued
    or in flight, further ones are shed with a fast, typed
    ``overloaded`` answer (``service.reject``) a client can back off
    on: a stuck scorer cannot grow a backlog of requests that would all
    blow their deadlines anyway.

    ``drain()`` stops intake, flushes whatever is pending, and blocks
    until every accepted request has been answered — the graceful-
    shutdown half of the SIGTERM story.
    """

    def __init__(self, service: Any, *, window_ms: float = 2.0,
                 max_batch: int = 16, max_pending: int = 256,
                 workers: int = 2,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.service = service
        self.window_ms = float(window_ms)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self._clock = clock if clock is not None else time.monotonic
        self._window = BatchWindow(self.window_ms / 1000.0, self.max_batch)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending = 0
        self._all_done = threading.Condition(self._lock)
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="netserve-batch")
        reg = registry()
        self._batch_size = reg.histogram("netserve.batch.size")
        # submit -> dispatch per request
        self._hold_ms = reg.histogram("netserve.batch.hold_ms")
        self._flush_total = reg.counter("netserve.batch.flush_total")
        self._bypass_total = reg.counter("netserve.batch.bypass_total")
        self._eager_total = reg.counter("netserve.batch.eager_total")
        self._shed_total = reg.counter("netserve.shed_total")
        self._pending_gauge = reg.gauge("netserve.pending")
        self._pending_gauge.set(0)
        self._flusher = threading.Thread(target=self._flush_loop,
                                         name="netserve-flusher",
                                         daemon=True)
        self._flusher.start()

    # -- intake ------------------------------------------------------------
    def submit(self, request: Any,
               deliver: Callable[[dict], None]) -> None:
        """Answer a table hit now, or enqueue the request; ``deliver``
        receives its response exactly once.

        A hit (:meth:`MatchService.answer_hit`) is answered and
        delivered in the caller's thread (rule 5): no lock, no pending
        slot, no window, no pool thread.  Everything else is enqueued
        and delivered later from a worker thread.  Never raises for
        per-request conditions: shed, shutdown and malformed requests
        all flow back through ``deliver`` as typed error responses.  A
        refusal is decided under the lock but minted and delivered
        after it is released: ``deliver`` may be a blocking pipe write,
        and must not stall other submitters.
        """
        if not self._stopping:  # once draining, a hit is refused below
            response = self.service.answer_hit(request)
            if response is not None:
                deliver(response)
                return
        refusal: Optional[Tuple[str, str]] = None
        with self._lock:
            if self._stopping:
                refusal = ("unavailable", "server is draining and no "
                                          "longer admits requests")
            elif self._pending >= self.max_pending:
                refusal = ("overloaded",
                           f"batcher at capacity ({self._pending}/"
                           f"{self.max_pending}); request shed")
            else:
                self._pending += 1
                self._pending_gauge.set(self._pending)
                budget_ms = request.get("budget_ms") \
                    if isinstance(request, dict) else None
                now = self._clock()
                dispatch = self._window.arrive(
                    (request, deliver, now), now,
                    urgent=bypasses_window(budget_ms, self.window_ms))
                if dispatch is not None:
                    self._start(dispatch)
                elif len(self._window) == 1:
                    self._wakeup.notify()  # a window opened: time it out
        if refusal is not None:
            self._shed_total.inc()
            deliver(self.service.reject(request, *refusal))

    def _count(self, dispatch: Tuple[str, List[_Held]]) -> List[_Held]:
        rule, batch = dispatch
        if rule == "bypass":
            self._bypass_total.inc()
        elif rule == "eager":
            self._eager_total.inc()
        return batch

    def _start(self, dispatch: Tuple[str, List[_Held]]) -> None:
        """Hand a batch the window released to the pool (lock held)."""
        self._pool.submit(self._run_batches, self._count(dispatch))

    # -- flushing ----------------------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            with self._lock:
                dispatch = self._window.expire(self._clock())
                if dispatch is not None:
                    self._start(dispatch)
                    continue
                if self._stopping:
                    return
                flush_at = self._window.flush_at()
                self._wakeup.wait(
                    timeout=0.1 if flush_at is None
                    else max(flush_at - self._clock(), 0.0))

    def _run_batches(self, batch: List[_Held]) -> None:
        """Worker entry: score ``batch``, then whatever the window hands
        the completing worker, until it hands over nothing."""
        while batch:
            self._run_batch(batch)
            with self._all_done:
                self._pending -= len(batch)
                self._pending_gauge.set(self._pending)
                if self._pending == 0:
                    self._all_done.notify_all()
                taken = self._window.complete()
                batch = self._count(taken) if taken is not None else []

    def _run_batch(self, batch: List[_Held]) -> None:
        started = self._clock()
        for _, _, arrived in batch:
            self._hold_ms.observe((started - arrived) * 1e3)
        requests = [request for request, _, _ in batch]
        try:
            responses = self.service.handle_batch(requests)
        except Exception as exc:  # handle_batch answers per-request;
            # reaching here is a bug, but callers still get answers —
            # minted here, since the service may be what is broken
            _log.error("fused batch call failed", error=str(exc),
                       batch=len(batch))
            for name in ("requests_total", "error_total",
                         "error.serve_error"):
                registry().counter(f"serve.{name}").inc(len(batch))
            responses = [error_response(
                r.get("id") if isinstance(r, dict) else None,
                "serve_error", f"internal batch failure: {exc}")
                for r in requests]
        self._flush_total.inc()
        self._batch_size.observe(float(len(batch)))
        for (_, deliver, _), response in zip(batch, responses):
            try:
                deliver(response)
            except Exception as exc:
                _log.warning("response delivery failed", error=str(exc))

    # -- shutdown ----------------------------------------------------------
    def hurry(self) -> None:
        """Stop windowing, keep serving: flush whatever is pending now
        and dispatch every later submit immediately.  The drain
        sequence calls this first — once shutdown has begun, latency
        amortization is over and every held request is pure delay.
        Non-blocking; intake stays open until :meth:`drain`."""
        with self._lock:
            self._window.hurried = True
            self._wakeup.notify_all()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop intake, flush pending work, wait for in-flight answers.

        Returns True if everything accepted was answered within
        ``timeout`` seconds.  Idempotent.
        """
        with self._lock:
            self._stopping = True
            self._window.hurried = True
            self._wakeup.notify_all()
        self._flusher.join(timeout=timeout)
        with self._all_done:
            if self._pending:
                self._all_done.wait_for(lambda: self._pending == 0,
                                        timeout=timeout)
            drained = self._pending == 0
        self._pool.shutdown(wait=True)
        return drained
