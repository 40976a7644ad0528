"""The JSON-lines request loop behind ``repro serve``.

One request per input line, one response per output line — stdin/stdout
framing with no network dependency, so the whole resilient path stays
exercisable in CI with nothing but pipes.  Every line is answered by
the reader itself, in order: a match request is a slice of the answer
table (:meth:`MatchService.handle`), and the control operations
(``info``, ``stats``, ``table``) go through the same table as the TCP
doors (:func:`repro.netserve.protocol.control_op`).  Clients still
correlate by ``id``, exactly as they would against a real RPC service.

A line that is not valid JSON yields a structured ``bad_request``
response (with ``id: null``, since no id could be read) and the loop
keeps serving — input corruption is a per-request failure, never a
process failure.  Such lines are counted separately
(``serve.requests.bad_line``) so framing corruption is distinguishable
from well-formed-but-invalid requests in the exported telemetry.

A failure in the *other* direction — the response sink going away
(broken pipe, closed file) — is counted (``serve.emit.failed``) and
stops the loop: nobody is reading the answers any more.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from ..netserve.protocol import control_op
from ..obs import get_logger, registry
from .service import MatchService

__all__ = ["serve_loop"]

_log = get_logger("repro.serve.loop")


def serve_loop(service: MatchService, source: Iterable[str],
               sink: IO[str]) -> int:
    """Serve JSON-lines requests from ``source`` into ``sink``.

    Warms the service, then answers every non-blank line with one JSON
    response line until EOF — or until the sink stops accepting writes.
    Returns the number of responses written.
    """
    service.warmup()
    written = 0
    for raw in source:
        line = raw.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError as exc:
            _log.warning("undecodable request line", error=str(exc))
            response = service.bad_line(exc)
        else:
            response = control_op(service, request)
            if response is None:
                response = service.handle(request)
        try:
            sink.write(json.dumps(response, separators=(",", ":")) + "\n")
            sink.flush()
        except Exception as exc:
            # The reader of our responses went away (broken pipe,
            # closed sink): stop taking work.
            registry().counter("serve.emit.failed").inc()
            _log.warning("response sink failed; shutting down",
                         error=f"{type(exc).__name__}: {exc}")
            break
        written += 1
    return written
