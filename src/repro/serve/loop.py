"""The JSON-lines request loop behind ``repro serve``.

One request per input line, one response per output line — stdin/stdout
framing with no network dependency, so the whole resilient path stays
exercisable in CI with nothing but pipes.  Match requests go through
the same :class:`~repro.serve.batcher.MicroBatcher` as the TCP door: a
table hit is answered by the reader itself, and past the table a lone
interactive query is scored at once, a piped burst coalesces, and past
``max_pending`` lines are shed.  Responses carry the request's
``id`` and may arrive out of submission order (workers and shed
rejections interleave); clients correlate by ``id``, exactly as they
would against a real RPC service.  The control operations (``info``,
``stats``) go through the same table as the TCP doors
(:func:`repro.netserve.protocol.control_op`).

A line that is not valid JSON yields a structured ``bad_request``
response (with ``id: null``, since no id could be read) and the loop
keeps serving — input corruption is a per-request failure, never a
process failure.  Such lines are counted separately
(``serve.requests.bad_line``) so framing corruption is distinguishable
from well-formed-but-invalid requests in the exported telemetry.

Failures in the *other* direction — the response sink going away
mid-drain (broken pipe, closed file) — are caught in ``emit`` rather
than propagated out of worker threads: each is counted
(``serve.emit.failed``), and the loop stops reading and drains the
batcher instead of silently losing every response after the first
failed write.
"""

from __future__ import annotations

import json
import threading
from typing import IO, Any, Iterable

from ..netserve.protocol import control_op
from ..obs import get_logger, registry
from .batcher import MicroBatcher
from .service import MatchService

__all__ = ["serve_loop"]

_log = get_logger("repro.serve.loop")


def serve_loop(service: MatchService, source: Iterable[str],
               sink: IO[str], **batching: Any) -> int:
    """Serve JSON-lines requests from ``source`` into ``sink``.

    Submits every non-blank line to a micro-batcher over the warmed
    service (``batching``: :class:`MicroBatcher`'s keywords), emits one
    JSON response line per request (control ops and parse failures
    answered inline by the reader), and drains the batcher at EOF — or
    as soon as the sink stops accepting writes.  Returns the number of
    responses written.
    """
    emit_lock = threading.Lock()
    written = [0]
    # Sink failure is remembered across emits: once the pipe is broken
    # every subsequent write would fail identically, so workers skip
    # straight past it and the reader loop below winds down.
    sink_failed = threading.Event()
    emit_failed_total = registry().counter("serve.emit.failed")

    def emit(response: dict) -> None:
        if sink_failed.is_set():
            emit_failed_total.inc()
            return
        line = json.dumps(response, separators=(",", ":"))
        with emit_lock:
            try:
                sink.write(line + "\n")
                sink.flush()
            except Exception as exc:
                # The reader of our responses went away (broken pipe,
                # closed sink).  A worker thread must not die on this —
                # count it, remember it, and let the loop drain out.
                sink_failed.set()
                emit_failed_total.inc()
                _log.warning("response sink failed; shutting down",
                             error=f"{type(exc).__name__}: {exc}")
                return
            written[0] += 1

    batcher = MicroBatcher(service.warmup(), **batching)
    try:
        for raw in source:
            if sink_failed.is_set():
                break  # nobody is reading responses: stop taking work
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as exc:
                _log.warning("undecodable request line", error=str(exc))
                emit(service.bad_line(exc))
                continue
            # control ops are answered inline by the reader, like every
            # other door: a locked in-memory snapshot, never a scoring
            # call, so they cannot queue behind match traffic
            answer = control_op(service, request)
            if answer is not None:
                emit(answer)
                continue
            batcher.submit(request, emit)
    finally:
        batcher.drain()
    return written[0]
