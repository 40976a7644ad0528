"""The asyncio TCP front end (``repro serve --listen``).

One process, many connections, one shared :class:`MicroBatcher`:
concurrent past-table queries from *different* clients coalesce into
the same fused scoring calls, which is where networked micro-batching
earns its keep — a single pipe can only batch against itself, a socket
batches across the whole client population.  A hit (``top_k <=
table_k``) has nothing to fuse: ``MicroBatcher.submit`` answers it on
the event loop, inside the read that framed its line, and the
connection writes it before reading on.

Sockets, framing, the per-connection outstanding cap, flow control and
the graceful drain are :class:`~repro.netserve.lineserver.LineServer`'s;
this module is the backend it serves: the batcher's worker pool owns
all scoring past the table, and a drain hurries the batcher (no more
windowing), lets every connection flush, then drains the pool.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, Callable, Optional

from ..obs import registry
from ..serve.batcher import MicroBatcher
from ..serve.service import MatchService
from .lineserver import LineServer

__all__ = ["NetServeConfig", "NetServer"]


@dataclasses.dataclass
class NetServeConfig:
    """Tuning knobs of the TCP front end (see README "Networked
    serving")."""

    #: bind address; port 0 binds an ephemeral port (tests)
    host: str = "127.0.0.1"
    port: int = 0
    #: micro-batch window: a request waits at most this long for
    #: companions before its batch flushes (0 disables coalescing)
    batch_window_ms: float = 2.0
    #: flush immediately once this many requests are pending
    max_batch: int = 16
    #: total requests queued + in flight before the batcher sheds
    max_pending: int = 256
    #: per-connection outstanding-request cap (see module docstring)
    conn_inflight: int = 32
    #: worker threads running fused scoring calls
    batch_workers: int = 2
    #: seconds the drain sequence waits for in-flight work to finish
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.conn_inflight < 1:
            raise ValueError("conn_inflight must be at least 1")
        if self.batch_workers < 1:
            raise ValueError("batch_workers must be at least 1")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")


class NetServer(LineServer):
    """Serve one :class:`MatchService` to many TCP clients: the shared
    line server (``run()`` / ``trigger_drain()`` / ``bound`` are
    :class:`LineServer`'s) over a :class:`MicroBatcher`."""

    def __init__(self, service: MatchService,
                 config: Optional[NetServeConfig] = None) -> None:
        super().__init__(config if config is not None else NetServeConfig(),
                         metric_prefix="netserve")
        self.service = service
        self.batcher: Optional[MicroBatcher] = None

    async def _open(self) -> None:
        cfg = self.config
        self.service.warmup()  # fail loud before accepting any client
        self.batcher = MicroBatcher(
            self.service, window_ms=cfg.batch_window_ms,
            max_batch=cfg.max_batch, max_pending=cfg.max_pending,
            workers=cfg.batch_workers)
        # registered up front so a scrape shows the shed counter at zero
        registry().counter("netserve.conn.overloaded_total")

    def submit(self, request: Any, deliver: Callable[[dict], None]) -> None:
        self.batcher.submit(request, deliver)

    def info(self, request_id: Any) -> dict:
        response = self.service.info(request_id)
        # conn_inflight: what one connection may have outstanding — a
        # shard router caps its pooled connection here
        response["info"].update(max_batch=self.config.max_batch,
                                batch_window_ms=self.config.batch_window_ms,
                                conn_inflight=self.config.conn_inflight)
        return response

    def stats(self, request_id: Any) -> dict:
        return self.service.stats(request_id)

    def table(self, request_id: Any) -> dict:
        return self.service.table(request_id)

    def bad_line(self, error: Exception) -> dict:
        return self.service.bad_line(error)

    def reject(self, request: Any, code: str, message: str) -> dict:
        return self.service.reject(request, code, message)

    def _hurry(self) -> None:
        # stop windowing immediately: every held request is pure delay
        # now, and connections cannot flush until they are answered
        self.batcher.hurry()

    async def _close(self) -> bool:
        return await asyncio.get_running_loop().run_in_executor(
            None, self.batcher.drain, self.config.drain_timeout_s)
