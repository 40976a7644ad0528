"""The asyncio TCP front end (``repro serve --listen``).

Sockets, framing, the per-connection outstanding cap, flow control and
the graceful drain are :class:`~repro.netserve.lineserver.LineServer`'s;
this module is the backend it serves.  Every match request is a slice
of the service's answer table, so :meth:`NetServer.submit` answers it
on the event loop, inside the read that framed its line, and the
connection writes it before reading on.  The service is warmed before
the socket listens, so no client's first request pays the table build
on the loop.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from ..obs import registry
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
    #: per-connection outstanding-request cap (see module docstring)
    conn_inflight: int = 32
    #: seconds the drain sequence waits for in-flight work to finish
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.conn_inflight < 1:
            raise ValueError("conn_inflight must be at least 1")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")


class NetServer(LineServer):
    """Serve one :class:`MatchService` to many TCP clients: the shared
    line server (``run()`` / ``trigger_drain()`` / ``bound`` are
    :class:`LineServer`'s) answering inline."""

    def __init__(self, service: MatchService,
                 config: Optional[NetServeConfig] = None) -> None:
        super().__init__(config if config is not None else NetServeConfig(),
                         metric_prefix="netserve")
        self.service = service

    async def _open(self) -> None:
        self.service.warmup()  # fail loud before accepting any client
        # registered up front so a scrape shows the shed counter at zero
        registry().counter("netserve.conn.overloaded_total")

    def submit(self, request: Any, deliver: Callable[[dict], None]) -> None:
        deliver(self.service.handle(request))

    def info(self, request_id: Any) -> dict:
        response = self.service.info(request_id)
        # conn_inflight: what one connection may have outstanding — a
        # shard router caps its pooled connection here
        response["info"]["conn_inflight"] = self.config.conn_inflight
        return response

    def stats(self, request_id: Any) -> dict:
        return self.service.stats(request_id)

    def table(self, request_id: Any) -> dict:
        return self.service.table(request_id)

    def bad_line(self, error: Exception) -> dict:
        return self.service.bad_line(error)

    def reject(self, request: Any, code: str, message: str) -> dict:
        return self.service.reject(request, code, message)
