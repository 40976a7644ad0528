"""The JSONL-over-TCP lifecycle every networked front door shares.

:class:`LineServer` owns everything between the socket and a decoded
request — listen, signal → drain, the per-connection read loop racing
the drain event, oversize/undecodable lines, control-op dispatch, the
per-connection outstanding cap, the write queue, drain bookkeeping —
and nothing about what a request *means*.  A front door subclasses it
with a backend (the methods under "the backend interface" below):
:class:`~repro.netserve.server.NetServer` is this server over a
:class:`~repro.serve.batcher.MicroBatcher`,
:class:`~repro.shard.router.ShardRouter` is this server over
scatter/gather — a service whose backend is N services.

Threading model: the asyncio event loop owns all socket I/O.  A backend
may answer from worker threads; responses cross back via
``loop.call_soon_threadsafe`` onto per-connection write queues, so the
loop never blocks on scoring and a worker never touches a socket.

Per connection, at most ``conn_inflight`` match requests are
outstanding (submitted, response not yet written *and* drained to the
kernel); beyond that the connection gets typed ``overloaded``
rejections, which also bounds its write queue at ``conn_inflight + 1``.
On SIGTERM/SIGINT the server stops accepting, lets every reader finish
its current line, answers everything in flight, flushes, closes the
backend and exits 0; progress shows as ``<metric_prefix>.conns*`` /
``<metric_prefix>.drain.*``.  DESIGN.md §13 ("Backpressure and drain")
has the full contract.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import signal
import time
from typing import Any, Callable, Optional, Set, Tuple

from ..obs import get_logger, registry
from .protocol import (MAX_LINE_BYTES, LineReader, OversizedLine,
                       control_op, decode_line, encode_response)

__all__ = ["LineServer"]

_log = get_logger("repro.netserve.lineserver")


class LineServer:
    """One listening JSONL socket over a backend (see module docstring).

    ``config`` supplies ``host``, ``port``, ``conn_inflight`` and
    ``drain_timeout_s``; ``metric_prefix`` namespaces the door's metrics.
    ``run()`` blocks until a drain completes (a signal, or
    :meth:`trigger_drain`) and returns a process exit code: 0 when every
    in-flight request was answered and flushed, 1 when the drain timed
    out with work pending.
    """

    def __init__(self, config: Any, metric_prefix: str) -> None:
        self.config = config
        self.metric_prefix = metric_prefix
        #: (host, port) actually bound, available once serving
        self.bound: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set[asyncio.Task] = set()

    # -- the backend interface ---------------------------------------------
    def submit(self, request: Any,
               deliver: Callable[[dict], None]) -> None:
        """Take one match query; call ``deliver(response)`` exactly
        once, later, from any thread."""
        raise NotImplementedError

    def info(self, request_id: Any) -> Any:
        """Answer a control op (:func:`~repro.netserve.protocol.
        control_op`): a response dict, or an awaitable of one.
        Likewise :meth:`stats` and :meth:`table`."""
        raise NotImplementedError

    def stats(self, request_id: Any) -> Any:
        raise NotImplementedError

    def table(self, request_id: Any) -> Any:
        raise NotImplementedError

    def bad_line(self, error: Exception) -> dict:
        """The typed answer to an undecodable line; like :meth:`reject`,
        accounted in the backend's own metrics."""
        raise NotImplementedError

    def reject(self, request: Any, code: str, message: str) -> dict:
        """The typed refusal of ``request`` — the whole request, not
        just its id, so the backend can join the caller's trace."""
        raise NotImplementedError

    async def _open(self) -> None:
        """Bring the backend up, inside the loop, before listening."""

    def _hurry(self) -> None:
        """The listener just closed: held work is pure delay now."""

    async def _close(self) -> bool:
        """Every connection has flushed: release the backend.  Returns
        whether everything it accepted was answered."""
        return True

    # -- lifecycle ---------------------------------------------------------
    def run(self, *, install_signals: bool = True,
            ready: Optional[Callable[[Tuple[str, int]], None]] = None) -> int:
        """Blocking entry point; see class docstring."""
        return asyncio.run(self._main(install_signals, ready))

    def trigger_drain(self) -> None:
        """Thread-safe drain initiation (the programmatic SIGTERM).
        Idempotent, including after the server has already exited."""
        loop, event = self._loop, self._drain_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # loop already closed: the drain it would ask for is done

    def _metric(self, name: str) -> str:
        return f"{self.metric_prefix}.{name}"

    def _on_signal(self, sig: int) -> None:
        registry().counter(self._metric("drain.signals")).inc()
        _log.info("drain signal received", signal=signal.Signals(sig).name)
        self._drain_event.set()

    async def _main(self, install_signals: bool,
                    ready: Optional[Callable[[Tuple[str, int]], None]]) -> int:
        cfg = self.config
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_event = asyncio.Event()
        # one task every connection's read races against
        self._draining = asyncio.ensure_future(self._drain_event.wait())
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._on_signal, sig)
        await self._open()  # fail loud before accepting any client
        reg = registry()
        self._conns_gauge = reg.gauge(self._metric("conns"))
        self._conns_gauge.set(0)
        server = await asyncio.start_server(
            self._accept, cfg.host, cfg.port, limit=MAX_LINE_BYTES)
        self.bound = tuple(server.sockets[0].getsockname()[:2])
        _log.info("listening", door=self.metric_prefix, host=self.bound[0],
                  port=self.bound[1])
        if ready is not None:
            ready(self.bound)
        await self._drain_event.wait()

        # -- ordered drain ------------------------------------------------
        started = time.monotonic()
        _log.info("draining", conns=len(self._conn_tasks))
        server.close()
        await server.wait_closed()  # 1. no new connections
        self._hurry()
        pending: Set[asyncio.Task] = set()
        if self._conn_tasks:
            # 2. readers observe the drain event, stop reading, wait for
            # their outstanding responses, flush, and close
            _, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=cfg.drain_timeout_s)
            for task in pending:
                task.cancel()
        backend_clean = await self._close()  # 3. release the backend
        clean = backend_clean and not pending
        elapsed_ms = (time.monotonic() - started) * 1e3
        reg.histogram(self._metric("drain.duration_ms")).observe(elapsed_ms)
        reg.gauge(self._metric("drain.clean")).set(1.0 if clean else 0.0)
        _log.info("drain complete", clean=clean,
                  duration_ms=round(elapsed_ms, 3))
        return 0 if clean else 1

    # -- per-connection handling -------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Register a new connection the moment it exists.

        Called synchronously from the transport's ``connection_made``,
        not as a task of its own: a connection accepted as a drain
        starts is already in ``_conn_tasks`` when the drain looks, even
        if its task has not run a step yet.  However that task ends —
        served, timed out, cancelled before its first step by the loop
        shutting down — its transport is closed, so no client is left
        holding a socket only the garbage collector would close."""
        task = asyncio.ensure_future(self._on_connection(reader, writer))
        self._conn_tasks.add(task)
        registry().counter(self._metric("conns_total")).inc()
        self._conns_gauge.set(float(len(self._conn_tasks)))

        def closed(_: asyncio.Task) -> None:
            self._conn_tasks.discard(task)
            self._conns_gauge.set(float(len(self._conn_tasks)))
            with contextlib.suppress(Exception):
                writer.close()

        task.add_done_callback(closed)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            await self._connection_loop(reader, writer)
        except Exception as exc:  # a broken conn must never kill serving
            _log.warning("connection failed",
                         error=f"{type(exc).__name__}: {exc}")

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        reg = registry()
        # Unbounded queue with a bounded occupancy invariant: tracked
        # responses are capped by conn_inflight, untracked ones are
        # enqueued by this (sequential) reader — see module docstring.
        out_queue: asyncio.Queue = asyncio.Queue()
        outstanding = {"n": 0}
        writer_task = asyncio.ensure_future(
            self._writer_loop(writer, out_queue, outstanding))

        def deliver(response: dict) -> None:
            # possibly from a backend worker thread
            loop.call_soon_threadsafe(out_queue.put_nowait, (response, True))

        line_reader = LineReader(reader)
        try:
            while not self._draining.done():
                line_task = asyncio.ensure_future(line_reader.readline())
                done, _ = await asyncio.wait(
                    {line_task, self._draining},
                    return_when=asyncio.FIRST_COMPLETED)
                if line_task not in done:
                    # draining: abandon the read, fall through to flush
                    line_task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await line_task
                    break
                try:
                    raw = line_task.result()
                except OversizedLine as exc:
                    # the reader discarded the line and resynchronised:
                    # answer a typed bad_request, keep the connection
                    reg.counter(self._metric("oversized_line")).inc()
                    await out_queue.put((self.bad_line(exc), False))
                    continue
                except (ConnectionError, OSError):
                    break
                if not raw:
                    break  # EOF: client half-closed, flush and finish
                if not raw.strip():
                    continue
                try:
                    request = decode_line(raw)
                except ValueError as exc:
                    await out_queue.put((self.bad_line(exc), False))
                    continue
                answer = control_op(self, request)
                if answer is not None:
                    if inspect.isawaitable(answer):
                        answer = await answer
                    await out_queue.put((answer, False))
                    continue
                if outstanding["n"] >= cfg.conn_inflight:
                    # pipelining past the cap without reading responses:
                    # typed shed, never unbounded buffering
                    reg.counter(self._metric("conn.overloaded_total")).inc()
                    await out_queue.put((self.reject(
                        request, "overloaded",
                        f"connection has {outstanding['n']} responses "
                        f"outstanding (cap {cfg.conn_inflight}); "
                        f"read before writing more"), False))
                    continue
                outstanding["n"] += 1
                self.submit(request, deliver)
        finally:
            # answer everything this connection still has in flight
            # before closing: the writer stops once nothing is owed.
            # Backends bound every request (a batch window, a shard
            # timeout), so this resolves unless the backend is stuck —
            # the drain timeout is the backstop
            out_queue.put_nowait(None)
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer_task, cfg.drain_timeout_s)

    async def _writer_loop(self, writer: asyncio.StreamWriter,
                           out_queue: asyncio.Queue,
                           outstanding: dict) -> None:
        broken = closing = False
        while not (closing and outstanding["n"] == 0):
            item = await out_queue.get()
            if item is None:
                closing = True  # reader is done: flush what is owed, stop
                continue
            response, tracked = item
            if not broken:
                try:
                    writer.write(encode_response(response))
                    await writer.drain()
                except (ConnectionError, OSError):
                    # client went away mid-write: stop writing but keep
                    # consuming so outstanding slots still free up
                    broken = True
                    registry().counter(
                        self._metric("conn.broken_total")).inc()
            if tracked:
                outstanding["n"] -= 1
