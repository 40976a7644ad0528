"""One shard's connection, as the router sees it.

:class:`ShardClient` keeps a single persistent JSONL connection to its
worker and multiplexes the router's concurrent requests over it,
correlating responses by a client-private id (``s<slot>-<n>``) so the
worker's out-of-order answers land on the right futures.  The worker
never sees the downstream client's ids — the router owns that mapping.

Two request paths:

* :meth:`request` — the pooled path every match request takes: write
  on the shared connection, await the pump.  Reconnects lazily,
  including to a *new* address when the supervisor restarted the
  worker on a fresh ephemeral port.  At most :meth:`cap_inflight`
  requests are outstanding on it — the worker's own per-connection
  cap, which it advertises in ``info`` — so the router's excess waits
  here, inside the caller's timeout, instead of being shed
  ``overloaded`` by the worker.
* :meth:`control` — a control op (``table``, ``stats``) on a
  brand-new throwaway connection (:meth:`request_once`), so it never
  queues behind match traffic on the pooled socket.

Failures surface as :class:`ShardUnavailable` (typed with a short
reason) so the router can treat "connection refused", "EOF
mid-request" and "no address yet" uniformly.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from ..netserve.protocol import LineReader, decode_line, encode_response
from ..obs import get_logger

__all__ = ["ShardClient", "ShardUnavailable", "RESPONSE_LINE_BYTES"]

_log = get_logger("repro.shard.client")

#: per-line cap for worker *responses* — wider than the request cap
#: because a top-k over a large repository is a long (legitimate) line
RESPONSE_LINE_BYTES = 8 << 20


class ShardUnavailable(ConnectionError):
    """A shard could not take (or finish) a call right now."""

    def __init__(self, slot: int, reason: str, detail: str = "") -> None:
        super().__init__(f"shard {slot} unavailable ({reason})"
                         + (f": {detail}" if detail else ""))
        self.slot = slot
        self.reason = reason


class ShardClient:
    """Multiplexed JSONL client for one shard worker.

    ``get_address`` is polled at (re)connect time — it is how the
    supervisor's restarts propagate: the client holds no address of its
    own, only the connection it last built, and rebuilds whenever the
    provider's answer changes or the connection broke.
    """

    def __init__(self, slot: int,
                 get_address: Callable[[], Optional[Tuple[str, int]]], *,
                 connect_timeout: float = 5.0) -> None:
        self.slot = slot
        self._get_address = get_address
        self._connect_timeout = connect_timeout
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count()
        self._connected_to: Optional[Tuple[str, int]] = None
        self._conn_lock = asyncio.Lock()
        #: admission to the pooled connection; None = uncapped
        self._slots: Optional[asyncio.Semaphore] = None

    def cap_inflight(self, cap: int) -> None:
        """Allow at most ``cap`` outstanding requests on the pooled
        connection (the worker's ``conn_inflight``)."""
        self._slots = asyncio.Semaphore(cap)

    # -- connection management ---------------------------------------------
    async def _ensure_connected(self) -> None:
        async with self._conn_lock:
            address = self._get_address()
            if address is None:
                raise ShardUnavailable(self.slot, "no_address",
                                       "worker has not published a port")
            if self._writer is not None and not self._writer.is_closing() \
                    and self._connected_to == address:
                return
            await self._teardown()
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*address),
                    self._connect_timeout)
            except (OSError, asyncio.TimeoutError) as exc:
                raise ShardUnavailable(
                    self.slot, "connect",
                    f"{type(exc).__name__}: {exc}") from exc
            self._writer = writer
            self._connected_to = address
            self._pump_task = asyncio.ensure_future(
                self._pump(LineReader(reader,
                                      max_line_bytes=RESPONSE_LINE_BYTES),
                           writer))

    async def _teardown(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._pump_task
            self._pump_task = None
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
            self._writer = None
        self._connected_to = None
        self._fail_pending("io", "connection torn down")

    async def close(self) -> None:
        async with self._conn_lock:
            await self._teardown()

    def _fail_pending(self, reason: str, detail: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ShardUnavailable(self.slot, reason, detail))

    # -- the response pump --------------------------------------------------
    async def _pump(self, lines: LineReader,
                    writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await lines.readline()
                if not line:
                    break  # worker closed (death or drain)
                if not line.strip():
                    continue
                try:
                    response = decode_line(line)
                except ValueError:
                    _log.warning("undecodable shard response dropped",
                                 slot=self.slot)
                    continue
                if not isinstance(response, dict):
                    continue
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            _log.warning("shard response pump failed", slot=self.slot,
                         error=f"{type(exc).__name__}: {exc}")
        finally:
            # every in-flight call on this connection is now undeliverable
            if self._writer is writer:
                self._writer = None
                self._connected_to = None
            with contextlib.suppress(Exception):
                writer.close()
            self._fail_pending("io", "connection to worker lost")

    # -- request paths ------------------------------------------------------
    async def request(self, payload: dict, *, timeout: float) -> dict:
        """One exchange on the pooled connection.  ``payload`` is sent
        with a client-private ``id``; the caller's own id never crosses
        this hop.  Raises :class:`ShardUnavailable` on connection
        failure and ``asyncio.TimeoutError`` when the worker holds the
        answer past ``timeout`` — time spent waiting for a slot under
        the cap included."""
        slots = self._slots
        if slots is None:
            return await self._exchange(payload, timeout)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        await asyncio.wait_for(slots.acquire(), timeout)
        try:
            return await self._exchange(payload, deadline - loop.time())
        finally:
            slots.release()

    async def _exchange(self, payload: dict, timeout: float) -> dict:
        await self._ensure_connected()
        internal_id = f"s{self.slot}-{next(self._ids)}"
        body = dict(payload)
        body["id"] = internal_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[internal_id] = future
        try:
            writer = self._writer
            if writer is None:
                raise ShardUnavailable(self.slot, "io",
                                       "connection lost before write")
            try:
                writer.write(encode_response(body))
                await writer.drain()
            except (OSError, ConnectionError) as exc:
                raise ShardUnavailable(
                    self.slot, "io",
                    f"{type(exc).__name__}: {exc}") from exc
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(internal_id, None)

    async def request_once(self, payload: dict, *, timeout: float) -> dict:
        """One exchange on a fresh throwaway connection (the transport
        of :meth:`control`): connect, send, read one line, close."""
        address = self._get_address()
        if address is None:
            raise ShardUnavailable(self.slot, "no_address",
                                   "worker has not published a port")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*address), self._connect_timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ShardUnavailable(self.slot, "connect",
                                   f"{type(exc).__name__}: {exc}") from exc
        try:
            body = dict(payload)
            body["id"] = f"s{self.slot}-once-{next(self._ids)}"
            writer.write(encode_response(body))
            await writer.drain()
            lines = LineReader(reader, max_line_bytes=RESPONSE_LINE_BYTES)
            line = await asyncio.wait_for(lines.readline(), timeout)
            if not line:
                raise ShardUnavailable(self.slot, "io",
                                       "worker closed without answering")
            response = decode_line(line)
            if not isinstance(response, dict):
                raise ShardUnavailable(self.slot, "io",
                                       "non-object response line")
            return response
        except (OSError, ConnectionError, ValueError) as exc:
            if isinstance(exc, ShardUnavailable):
                raise
            raise ShardUnavailable(self.slot, "io",
                                   f"{type(exc).__name__}: {exc}") from exc
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def control(self, op: str, *, timeout: float) -> dict:
        """The worker's ``op`` payload (its live ``stats`` snapshot, its
        whole answer ``table``), on a throwaway connection — a control
        exchange must not queue behind whatever match traffic occupies
        the pooled socket.  Raises :class:`ShardUnavailable` on any
        failure (including a worker that does not know the op, or a
        line past ``RESPONSE_LINE_BYTES``), so the router can report a
        partial scrape or refuse to boot instead of crashing."""
        response = await self.request_once({"op": op}, timeout=timeout)
        payload = response.get(op)
        if not response.get("ok") or not isinstance(payload, dict):
            raise ShardUnavailable(
                self.slot, op,
                f"worker answered {response.get('error') or response!r}")
        return payload
