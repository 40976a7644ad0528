"""The graceful-degradation ladder for match queries.

Three tiers, from best answer to best-effort answer:

* ``full`` — the fitted matcher's own scoring path (for CrossEM+:
  rows of the tuned soft-prompt text matrix, or an attached ANN
  index), run through the text breaker.  Under an unhealthy backend,
  slow or failing.
* ``cached`` — scoring against the fallback matcher's *discrete-prompt*
  embedding matrix (PR 2's prompt cache): a pure matrix slice + GEMM
  outside any breaker, bit-identical to what a standalone hard-prompt
  matcher would return.  Immune to a failure of the primary's backend,
  at the accuracy of untuned hard prompts.
* ``stale`` — the vertex's answer from the table ``warmup()`` cut
  from the full tier's own tile kernel (``MatchService`` answer table):
  bit-equal to the full answer, instant and always deadline-safe, but
  only ``table_k`` matches wide — a larger request misses and surfaces
  its failure instead.

:class:`DegradationPolicy` decides *where to start*: breaker open or
not enough budget left for the full tier means starting at ``cached``.
The service additionally falls *down* the ladder when a tier fails at
runtime, with one asymmetry: a :class:`DeadlineExceeded` skips straight
to ``stale``, because once the budget is blown only a free tier is
honest to run.  Every degraded response is tagged with its tier and
reason, and counted per tier in the metrics registry.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..obs import add_trace_event
from .breaker import CircuitBreaker
from .deadline import Deadline

__all__ = ["TIER_FULL", "TIER_CACHED", "TIER_STALE", "LADDER",
           "DegradeDecision", "DegradationPolicy"]

TIER_FULL = "full"
TIER_CACHED = "cached"
TIER_STALE = "stale"
LADDER: Tuple[str, ...] = (TIER_FULL, TIER_CACHED, TIER_STALE)

REASON_BREAKER_OPEN = "breaker_open"
REASON_DEADLINE = "deadline_pressure"


@dataclasses.dataclass(frozen=True)
class DegradeDecision:
    """Which tiers to attempt, in order, and why any were skipped."""

    tiers: Tuple[str, ...]
    reason: Optional[str] = None  # None -> nothing was skipped up front

    @property
    def degraded(self) -> bool:
        return self.tiers[0] != TIER_FULL


class DegradationPolicy:
    """Chooses the entry tier for one request.

    ``full_floor`` (seconds) is the minimum remaining budget worth
    spending on a full encode: below it the policy starts at ``cached``
    rather than beginning work that is doomed to blow the deadline.
    """

    def __init__(self, breaker: CircuitBreaker, *,
                 full_floor: float = 0.0) -> None:
        if full_floor < 0:
            raise ValueError("full_floor must be non-negative")
        self.breaker = breaker
        self.full_floor = full_floor

    def plan(self, deadline: Deadline) -> DegradeDecision:
        if not self.breaker.allows_call():
            decision = DegradeDecision((TIER_CACHED, TIER_STALE),
                                       REASON_BREAKER_OPEN)
        elif deadline.bounded and deadline.remaining() < self.full_floor:
            decision = DegradeDecision((TIER_CACHED, TIER_STALE),
                                       REASON_DEADLINE)
        else:
            decision = DegradeDecision(LADDER)
        add_trace_event("degrade", tiers=list(decision.tiers),
                        reason=decision.reason)
        return decision
