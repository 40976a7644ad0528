"""Typed failures of the online query path.

Every way a request can fail maps to exactly one exception class, and
every class carries a stable ``code`` that becomes the ``error.type``
field of the JSON error response.  Handlers switch on the class (or the
code), never on message strings, so the failure taxonomy is part of the
serving API:

* :class:`BadRequest` — the request itself is malformed (unknown
  vertex, wrong field type).  Retrying it verbatim will never help.
* :class:`DeadlineExceeded` — the per-request budget ran out mid-stage.
  The request was well-formed; a retry with a larger budget may work.
* :class:`BreakerOpen` — the circuit breaker is refusing calls to a
  failing scoring backend.  It reaches the client: only a request past
  the answer table calls the backend, and there is no lower tier to
  fall back to.  Retry after ``retry_after`` seconds, or ask for at
  most ``table_k`` matches.

All inherit :class:`ServeError`, so "any expected serving failure" is
one ``except`` clause while genuinely unexpected bugs stay loud.

Two codes have no class, because a door refuses the request before
anything could raise (``MatchService.reject``): ``overloaded`` (shed at
an admission bound; back off and retry) and ``unavailable`` (this
instance is draining; fail over).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["ServeError", "BadRequest", "DeadlineExceeded", "BreakerOpen",
           "error_response"]


def error_response(request_id: Any, code: str, message: str,
                   elapsed_ms: float = 0.0) -> dict:
    """The one wire form of a server-side failure (every door accounts
    it in its own metrics, then builds the body here): ``code`` is a
    :attr:`ServeError.code`, ``overloaded`` / ``unavailable`` for a
    refusal, or ``internal`` for an isolated bug."""
    return {"id": request_id, "ok": False,
            "error": {"type": code, "message": message},
            "elapsed_ms": round(elapsed_ms, 3)}


class ServeError(RuntimeError):
    """Base class of every expected per-request serving failure."""

    code = "serve_error"


class BadRequest(ServeError):
    """The request is structurally invalid; it can never succeed."""

    code = "bad_request"


class DeadlineExceeded(ServeError):
    """A stage observed that the request's time budget is exhausted.

    ``stage`` names the pipeline stage that noticed (granularity of the
    deadline guarantee: a request returns within budget plus at most one
    stage).  ``budget`` and ``elapsed`` are seconds.
    """

    code = "deadline_exceeded"

    def __init__(self, stage: str, budget: float, elapsed: float) -> None:
        super().__init__(
            f"deadline exceeded in stage {stage!r}: "
            f"elapsed {elapsed * 1e3:.1f}ms of {budget * 1e3:.1f}ms budget")
        self.stage = stage
        self.budget = budget
        self.elapsed = elapsed


class BreakerOpen(ServeError):
    """A circuit breaker is open; the wrapped backend is not called.

    ``retry_after`` is the remaining cooldown in seconds (``None`` when
    the breaker is half-open and its single probe slot is taken).
    """

    code = "breaker_open"

    def __init__(self, name: str, retry_after: Optional[float] = None) -> None:
        detail = (f"; retry after {retry_after:.3f}s"
                  if retry_after is not None else "")
        super().__init__(f"circuit breaker {name!r} is open{detail}")
        self.name = name
        self.retry_after = retry_after
