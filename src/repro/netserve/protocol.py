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

carrying repository metadata (entity vertices, image count, the
outstanding-request cap).  Remote load generators use it to discover queryable vertices
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

carrying the head of the door's answer table: every vertex's first
``k`` = :data:`TABLE_K` matches, best first, as per-vertex
``ids``/``scores`` rows in ``vertices`` order, with the sha256 of
exactly those rows, which ``info`` also reports as ``table_sha256``
(:func:`repro.serve.service.table_digest`).  A shard router fetches
each worker's head once and answers requests up to ``k`` deep from
their merge; its own ``table`` op returns that merged head (DESIGN.md
§14).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional, Tuple

__all__ = ["MAX_LINE_BYTES", "LineFramer", "LineReader", "OversizedLine",
           "decode_line", "encode_response", "CONTROL_OPS", "TABLE_K",
           "control_op", "request_op"]

#: hard per-line cap; a longer line is answered ``bad_request`` with the
#: offending bytes discarded, so one hostile client cannot balloon
#: server memory — and, since framing resynchronises at the next
#: newline, cannot kill its own connection's other requests either
MAX_LINE_BYTES = 1 << 20


class OversizedLine(ValueError):
    """A request line exceeded the per-line cap.

    The line's bytes are discarded through its newline, so the stream
    stays framed at the start of the next line: the caller can answer a typed
    ``bad_request`` (id ``null`` — the request was never parsed) and
    keep reading, instead of hanging up on the whole connection.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"request line exceeded {limit} bytes; "
                         f"line discarded")
        self.limit = limit


class LineFramer:
    """Synchronous newline framing that survives oversized lines — the
    one framer behind every JSONL reader (the line server's protocol
    feeds it socket chunks; :class:`LineReader` wraps it for stream
    clients).

    :meth:`feed` takes whatever bytes arrived; :meth:`next_line` returns
    the next complete line (with its newline), ``None`` when no whole
    line is buffered, or raises :class:`OversizedLine` for a line past
    ``max_line_bytes``.  An oversized line is dropped at once and the
    rest of it is discarded as it arrives, through its newline, so the
    framer never holds more than the cap plus one fed chunk and the
    stream stays framed: the line after it is served normally.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        self._max = max_line_bytes
        self._buffer = bytearray()
        #: inside an oversized line: drop bytes through its newline
        self._discarding = False

    def feed(self, data: bytes) -> None:
        if self._discarding:
            newline = data.find(b"\n")
            if newline < 0:
                return
            self._discarding = False
            data = data[newline + 1:]
        self._buffer.extend(data)

    def next_line(self) -> Optional[bytes]:
        newline = self._buffer.find(b"\n")
        if newline > self._max:
            del self._buffer[:newline + 1]
            raise OversizedLine(self._max)
        if newline >= 0:
            line = bytes(self._buffer[:newline + 1])
            del self._buffer[:newline + 1]
            return line
        if len(self._buffer) > self._max:
            self._buffer.clear()
            self._discarding = True
            raise OversizedLine(self._max)
        return None

    def tail(self) -> bytes:
        """At EOF: the unterminated last line, if any (``b""`` when the
        stream ended on a newline or inside a discarded line)."""
        line = bytes(self._buffer)
        self._buffer.clear()
        return line

    def clear(self) -> None:
        """Forget every buffered byte (lines a drain will not answer)."""
        self._buffer.clear()


class LineReader:
    """:class:`LineFramer` over an ``asyncio.StreamReader``, for stream
    clients (the shard router's worker connections).

    ``StreamReader.readline`` raises on a too-long line *after*
    clearing its buffer mid-line, which leaves the stream unframed —
    the only safe continuation is to close the connection.  This reader
    raises :class:`OversizedLine` with the stream still framed, so the
    connection keeps serving.  Returned lines include their trailing
    newline, and EOF yields ``b""`` — the same contract as
    ``StreamReader.readline`` minus the connection-killing failure mode.
    """

    def __init__(self, reader: Any, *, max_line_bytes: int = MAX_LINE_BYTES,
                 chunk_bytes: int = 1 << 16) -> None:
        self._reader = reader
        self._framer = LineFramer(max_line_bytes)
        self._chunk = chunk_bytes
        self._eof = False

    async def readline(self) -> bytes:
        while True:
            line = self._framer.next_line()
            if line is not None:
                return line
            if self._eof:
                return self._framer.tail()
            data = await self._reader.read(self._chunk)
            if not data:
                self._eof = True
            else:
                self._framer.feed(data)


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

#: entries per vertex the ``table`` op ships (``table.k``, ``info``'s
#: ``table_k``): a router answers a request this short from the merged
#: heads and scatters a longer one to the workers, whose own tables
#: hold every vertex's whole owned ranking
TABLE_K = 16


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
