"""Resilient online serving of match queries (``repro serve``).

A fault-tolerant query layer over a fitted matcher.  The pieces, each
its own module and each independently testable:

* :mod:`repro.serve.errors` — the typed failure taxonomy.
* :mod:`repro.serve.deadline` — per-request time budgets checked at
  stage boundaries (bounded overshoot, not unbounded stalls).
* :mod:`repro.serve.breaker` — the circuit breaker around the scoring
  backend (closed → open → half-open, metrics-visible).
* :mod:`repro.serve.batcher` — the micro-batcher: the one admission
  point, queue and scoring pool behind every door; sheds load with
  typed ``overloaded`` answers at ``max_pending``.
* :mod:`repro.serve.service` — :class:`MatchService`, tying the above
  into a per-request-isolated pipeline: every answer is a slice of the
  answer table or a breaker-guarded, deadline-bounded tile-kernel call,
  or it is a typed error.
* :mod:`repro.serve.loop` — the stdin/stdout JSON-lines front end.

See README "Serving" for the request/response schema and DESIGN.md §9
for the failure model and its guarantees.
"""

from .batcher import BatchWindow, MicroBatcher, bypasses_window
from .breaker import (STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                      CircuitBreaker)
from .deadline import Deadline, is_budget_ms
from .errors import (BadRequest, BreakerOpen, DeadlineExceeded, ServeError,
                     error_response)
from .loop import serve_loop
from .service import MatchService, ServeConfig

__all__ = [
    "ServeError", "BadRequest", "DeadlineExceeded", "BreakerOpen",
    "error_response",
    "Deadline", "is_budget_ms",
    "CircuitBreaker", "STATE_CLOSED", "STATE_HALF_OPEN", "STATE_OPEN",
    "BatchWindow", "MicroBatcher", "bypasses_window",
    "MatchService", "ServeConfig",
    "serve_loop",
]
