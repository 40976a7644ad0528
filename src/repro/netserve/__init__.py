"""Networked serving: a TCP front end over :class:`MatchService`.

The stdin/stdout loop (:mod:`repro.serve.loop`) serves one client; this
package serves many, over a socket, with the same JSONL framing and the
same response schema — a client that worked against ``repro serve``
pipes works unchanged against ``repro serve --listen``.  The pieces:

* :mod:`repro.netserve.lineserver` — the asyncio JSONL line server every
  networked door shares (``NetServer`` here, the shard router): one
  ``asyncio.Protocol`` per connection, framing, typed ``overloaded``
  rejections past the outstanding cap, flow control for clients that
  stop reading, control-op dispatch, graceful drain on SIGTERM/SIGINT.
* :mod:`repro.netserve.server` — ``NetServer``: that line server over
  one service, every request answered inline as a table slice.
* :mod:`repro.netserve.protocol` — the line framer, the control-op
  table (``info`` / ``stats`` / ``table``), the ``table`` op's depth
  and the one-shot control-op client.

See README "Networked serving" and DESIGN.md §13.
"""

from .lineserver import LineServer
from .protocol import (TABLE_K, LineReader, OversizedLine, control_op,
                       decode_line, encode_response, request_op)
from .server import NetServeConfig, NetServer

__all__ = [
    "LineReader", "OversizedLine", "LineServer", "TABLE_K",
    "control_op", "decode_line", "encode_response", "request_op",
    "NetServeConfig", "NetServer",
]
