"""Resilient online serving of match queries (``repro serve``).

A fault-tolerant query layer over a fitted matcher.  The pieces, each
its own module and each independently testable:

* :mod:`repro.serve.errors` — the typed failure taxonomy.
* :mod:`repro.serve.service` — :class:`MatchService`: every answer is a
  slice of the answer table ``warmup()`` cut (each vertex's whole
  owned ranking), or it is a typed error.
* :mod:`repro.serve.loop` — the stdin/stdout JSON-lines front end.

See README "Serving" for the request/response schema and DESIGN.md §9
for the failure model and its guarantees.
"""

from .errors import BadRequest, ServeError, error_response
from .loop import serve_loop
from .service import BATCH_TILE, MatchService, ServeConfig

__all__ = [
    "ServeError", "BadRequest", "error_response",
    "BATCH_TILE", "MatchService", "ServeConfig",
    "serve_loop",
]
