"""Networked serving: a TCP front end over :class:`MatchService`.

The stdin/stdout loop (:mod:`repro.serve.loop`) serves one client; this
package serves many, over a socket, with the same JSONL framing and the
same response schema — a client that worked against ``repro serve``
pipes works unchanged against ``repro serve --listen``.  The pieces:

* :mod:`repro.serve.batcher` (re-exported here; the pipe door and the
  load driver submit to it too) — the dynamic micro-batcher: concurrent
  single-vertex queries past the answer table arriving within a
  latency-bounded window are coalesced into one
  :meth:`MatchService.handle_batch` call without changing any answer
  bit (DESIGN.md §13); a table hit is answered by the submitting thread.
* :mod:`repro.netserve.lineserver` — the asyncio JSONL line server every
  networked door shares (``NetServer`` here, the shard router): one
  ``asyncio.Protocol`` per connection, framing, typed ``overloaded``
  rejections past the outstanding cap, flow control for clients that
  stop reading, control-op dispatch, graceful drain on SIGTERM/SIGINT.
* :mod:`repro.netserve.server` — ``NetServer``: that line server over
  the micro-batcher.
* :mod:`repro.netserve.protocol` — the line framer, the control-op
  table (``info`` / ``stats`` / ``table``) and the one-shot control-op
  client.

See README "Networked serving" and DESIGN.md §13 for the window-vs-
deadline semantics and the batched-exactness argument.
"""

from ..serve.batcher import BatchWindow, MicroBatcher, bypasses_window
from .lineserver import LineServer
from .protocol import (LineReader, OversizedLine, control_op, decode_line,
                       encode_response, request_op)
from .server import NetServeConfig, NetServer

__all__ = [
    "BatchWindow", "MicroBatcher", "bypasses_window",
    "LineReader", "OversizedLine", "LineServer",
    "control_op", "decode_line", "encode_response", "request_op",
    "NetServeConfig", "NetServer",
]
