"""Resilient online serving of match queries (``repro serve``).

A fault-tolerant query layer over a fitted matcher.  The pieces, each
its own module and each independently testable:

* :mod:`repro.serve.errors` — the typed failure taxonomy.
* :mod:`repro.serve.deadline` — per-request time budgets checked at
  stage boundaries (bounded overshoot, not unbounded stalls).
* :mod:`repro.serve.breaker` — circuit breakers around the encoder
  backends (closed → open → half-open, metrics-visible).
* :mod:`repro.serve.batcher` — the micro-batcher: the one admission
  point, queue and scoring pool behind every door; sheds load with
  typed ``overloaded`` answers at ``max_pending``.
* :mod:`repro.serve.degrade` — the full → cached → stale degradation
  ladder and the policy picking the entry tier.
* :mod:`repro.serve.service` — :class:`MatchService`, tying the above
  into a per-request-isolated pipeline.
* :mod:`repro.serve.loop` — the stdin/stdout JSON-lines front end.

See README "Serving" for the request/response schema and DESIGN.md §9
for the failure model and its guarantees.
"""

from .batcher import BatchWindow, MicroBatcher, bypasses_window
from .breaker import (STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                      CircuitBreaker)
from .deadline import Deadline, is_budget_ms
from .degrade import (LADDER, TIER_CACHED, TIER_FULL, TIER_STALE,
                      DegradationPolicy, DegradeDecision)
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
    "DegradationPolicy", "DegradeDecision",
    "TIER_FULL", "TIER_CACHED", "TIER_STALE", "LADDER",
    "MatchService", "ServeConfig",
    "serve_loop",
]
