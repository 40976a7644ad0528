"""Typed failures of the online query path.

Every way a request can fail maps to exactly one exception class, and
every class carries a stable ``code`` that becomes the ``error.type``
field of the JSON error response.  Handlers switch on the class (or the
code), never on message strings, so the failure taxonomy is part of the
serving API:

* :class:`BadRequest` — the request itself is malformed (unknown
  vertex, wrong field type).  Retrying it verbatim will never help.

All inherit :class:`ServeError`, so "any expected serving failure" is
one ``except`` clause while genuinely unexpected bugs stay loud.

Two codes have no class, because a door refuses the request before
anything could raise (``MatchService.reject``): ``overloaded`` (shed at
an admission bound; back off and retry) and ``unavailable`` (this
instance is draining; fail over).
"""

from __future__ import annotations

from typing import Any

__all__ = ["ServeError", "BadRequest", "error_response"]


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
