"""Wire protocol of the TCP front end.

The framing is exactly the stdio loop's: one JSON object per line,
``\\n``-terminated, responses correlated by ``id`` and allowed to
arrive out of submission order.  This module holds what every front
door (stdio loop, TCP server, shard router) and every client must agree
on, so none grows a private copy: the framing, the control-op table
(:func:`control_op`) and the one-shot control-op client
(:func:`request_op`).

Beyond match requests, every door answers three control operations:

``{"op": "info", "id": ...}`` →
``{"id": ..., "ok": true, "info": {...}}``

carrying repository metadata (entity vertices, image count, batching
limits).  Remote load generators use it to discover queryable vertices
without fitting a local matcher — the socket equivalent of what
``repro load`` reads off the in-process service.

``{"op": "stats", "id": ...}`` →
``{"id": ..., "ok": true, "stats": {...}}``

carrying a point-in-time snapshot of the process's metrics registry and
span aggregates (:meth:`MatchService.stats`) — the live-scrape primitive
behind ``repro obs scrape`` and the router's fleet aggregation
(DESIGN.md §15).  Answered inline off the event loop: a snapshot is a
locked copy of in-memory instruments, never a scoring call, so a scrape
cannot queue behind (or be shed by) match traffic.

``{"op": "table", "id": ...}`` →
``{"id": ..., "ok": true, "table": {"k", "vertices", "ids", "scores",
"sha256"}}``

carrying the door's whole answer table: every vertex's first ``k``
matches, best first, as per-vertex ``ids``/``scores`` rows in
``vertices`` order, with the sha256 ``info`` also reports as
``table_sha256`` (:func:`repro.serve.service.table_digest`).  A shard
router fetches each worker's table once and answers hits from their
merge; its own ``table`` op returns that merged table (DESIGN.md §14).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Tuple

__all__ = ["MAX_LINE_BYTES", "LineReader", "OversizedLine", "decode_line",
           "encode_response", "CONTROL_OPS", "control_op", "request_op"]

#: hard per-line cap; a longer line is answered ``bad_request`` with the
#: offending bytes discarded, so one hostile client cannot balloon
#: server memory — and, since framing resynchronises at the next
#: newline, cannot kill its own connection's other requests either
MAX_LINE_BYTES = 1 << 20


class OversizedLine(ValueError):
    """A request line exceeded the per-line cap.

    The line's bytes were discarded and the stream is positioned at the
    start of the next line: the caller can answer a typed
    ``bad_request`` (id ``null`` — the request was never parsed) and
    keep reading, instead of hanging up on the whole connection.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"request line exceeded {limit} bytes; "
                         f"line discarded")
        self.limit = limit


class LineReader:
    """Newline framing over an ``asyncio.StreamReader`` that survives
    oversized lines.

    ``StreamReader.readline`` raises on a too-long line *after*
    clearing its buffer mid-line, which leaves the stream unframed —
    the only safe continuation is to close the connection (the pre-PR-9
    behaviour).  This reader buffers for itself on top of ``read()``:
    when a line exceeds ``max_line_bytes`` it discards through the next
    newline (never holding more than one chunk of the oversized body in
    memory) and raises :class:`OversizedLine` with the stream
    resynchronised, so the connection keeps serving.

    Returned lines include their trailing newline, and EOF yields
    ``b""`` — the same contract as ``StreamReader.readline`` minus the
    connection-killing failure mode.
    """

    def __init__(self, reader: Any, *, max_line_bytes: int = MAX_LINE_BYTES,
                 chunk_bytes: int = 1 << 16) -> None:
        self._reader = reader
        self._max = max_line_bytes
        self._chunk = chunk_bytes
        self._buffer = bytearray()
        self._eof = False

    async def readline(self) -> bytes:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                if newline > self._max:
                    del self._buffer[:newline + 1]
                    raise OversizedLine(self._max)
                line = bytes(self._buffer[:newline + 1])
                del self._buffer[:newline + 1]
                return line
            if len(self._buffer) > self._max:
                await self._discard_to_newline()
                raise OversizedLine(self._max)
            if self._eof:
                # trailing unterminated line (or empty buffer = clean EOF)
                line = bytes(self._buffer)
                self._buffer.clear()
                return line
            data = await self._reader.read(self._chunk)
            if not data:
                self._eof = True
            else:
                self._buffer.extend(data)

    async def _discard_to_newline(self) -> None:
        """Drop the oversized partial line, keep whatever follows the
        next newline (the start of the next, innocent request)."""
        self._buffer.clear()
        while not self._eof:
            data = await self._reader.read(self._chunk)
            if not data:
                self._eof = True
                return
            newline = data.find(b"\n")
            if newline >= 0:
                self._buffer.extend(data[newline + 1:])
                return


def decode_line(raw: bytes) -> Any:
    """Decode one request line; raises ``ValueError`` on bad UTF-8 or
    bad JSON (both are framing failures, answered identically)."""
    return json.loads(raw.decode("utf-8"))


def encode_response(response: dict) -> bytes:
    """One response, compactly encoded, newline-terminated."""
    return json.dumps(response, separators=(",", ":")).encode("utf-8") \
        + b"\n"


#: control operations: answered inline by the backend method of the same
#: name instead of being submitted as a match query
CONTROL_OPS = ("info", "stats", "table")


def control_op(backend: Any, request: Any) -> Any:
    """Dispatch a control operation to ``backend`` — the only place
    ``op`` strings are matched.

    ``None`` for a match query (or an op nobody knows: the service
    answers that ``bad_request`` like any vertex-less object); else
    ``backend.<op>(request_id)`` — a complete response dict, or an
    awaitable of one from a backend that asks other processes.
    """
    if not isinstance(request, dict) or \
            request.get("op") not in CONTROL_OPS:
        return None
    return getattr(backend, request["op"])(request.get("id"))


def request_op(address: Tuple[str, int], op: str, *,
               timeout: float = 10.0) -> dict:
    """One control operation against the server at ``address``, on a
    throwaway connection; returns the ``op`` payload of the response.

    ``timeout`` bounds every socket operation (connect *and* the answer
    read), so a hung server costs one timeout.  Raises ``OSError`` on
    refused/reset/timeout (``ConnectionError`` when the server hangs up
    without answering), ``RuntimeError`` on a typed error response
    (e.g. a server too old to know the op), ``ValueError`` on a garbled
    line or a response without the payload.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(encode_response({"op": op, "id": op}))
        line = sock.makefile("rb").readline()
    if not line:
        raise ConnectionError(f"server at {address[0]}:{address[1]} "
                              f"closed without answering {op}")
    response = decode_line(line)
    if not isinstance(response, dict):
        raise ValueError(f"{op} response is not a JSON object")
    if not response.get("ok"):
        raise RuntimeError(f"{op} request failed: {response.get('error')}")
    payload = response.get(op)
    if not isinstance(payload, dict):
        raise ValueError(f"{op} response carries no {op} object")
    return payload
