"""The JSONL-over-TCP lifecycle every networked front door shares.

:class:`LineServer` owns everything between the socket and a decoded
request — listen, signal → drain, framing, oversize/undecodable lines,
control-op dispatch, the per-connection outstanding cap, write flow
control, drain bookkeeping — and nothing about what a request *means*.
A front door subclasses it with a backend (the methods under "the
backend interface" below): :class:`~repro.netserve.server.NetServer`
is this server over one :class:`~repro.serve.service.MatchService`,
:class:`~repro.shard.router.ShardRouter` is this server over
scatter/gather — a service whose backend is N services.

Each connection is an ``asyncio.Protocol`` (:class:`_Connection`), not
a reader task and a writer task.  ``data_received`` frames the bytes
(:class:`~repro.netserve.protocol.LineFramer`) and dispatches every
whole line synchronously, in order: a control op or a refusal is
written at once, a match request goes to the backend's ``submit``.
The response callback ``deliver`` writes to the transport directly,
on the loop thread — so a request the backend answers inline (every
``NetServer`` request) is answered inside the ``data_received`` that
read it, and one it answers from a task (a router fan-out) when the
task finishes.

Order and backpressure, per connection:

* a control op whose answer is a coroutine (the router's ``stats``)
  holds the connection: reading pauses and no buffered line is
  dispatched until its answer is written, so lines are still
  dispatched in the order they arrived;
* at most ``conn_inflight`` match requests are outstanding (submitted,
  response not yet written); beyond that the connection gets typed
  ``overloaded`` rejections (``<metric_prefix>.conn.overloaded_total``);
* a client that stops reading is bounded by the transport's flow
  control: ``pause_writing`` holds the connection like a pending op
  until ``resume_writing``, so the write buffer stays near the
  transport's high-water mark;
* a response for a connection that has gone is dropped, counted once
  in ``conn.broken_total``, and still frees its slot.

A client's EOF (half-close) answers what is outstanding, flushes, then
closes.  On SIGTERM/SIGINT the server stops accepting, every connection
stops reading (lines it has not dispatched are not answered), answers
what it accepted, flushes and closes — ``drain_timeout_s`` is the
backstop — then the backend closes and the process exits 0; progress
shows as ``<metric_prefix>.conns*`` / ``<metric_prefix>.drain.*``.
DESIGN.md §13 ("Backpressure and drain") has the full contract.
"""

from __future__ import annotations

import asyncio
import inspect
import signal
import socket
import time
from typing import Any, Callable, Optional, Set, Tuple

from ..obs import get_logger, registry
from .protocol import (LineFramer, OversizedLine, control_op, decode_line,
                       encode_response)

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
        self._draining = False
        #: accepted sockets whose connection is being made
        self._handshakes: Set[asyncio.Task] = set()
        self._conns: Set[_Connection] = set()

    # -- the backend interface ---------------------------------------------
    def submit(self, request: Any,
               deliver: Callable[[dict], None]) -> None:
        """Take one match query; call ``deliver(response)`` exactly
        once, on the loop thread — inline, or later from a task."""
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
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._on_signal, sig)
        await self._open()  # fail loud before accepting any client
        reg = registry()
        self._conns_gauge = reg.gauge(self._metric("conns"))
        self._conns_gauge.set(0)
        listener = socket.create_server(
            (cfg.host, cfg.port),
            family=socket.AF_INET6 if ":" in cfg.host else socket.AF_INET)
        listener.setblocking(False)
        loop.add_reader(listener.fileno(), self._accept, listener)
        self.bound = tuple(listener.getsockname()[:2])
        _log.info("listening", door=self.metric_prefix, host=self.bound[0],
                  port=self.bound[1])
        if ready is not None:
            ready(self.bound)
        await self._drain_event.wait()

        # -- ordered drain ------------------------------------------------
        started = time.monotonic()
        _log.info("draining", conns=len(self._conns))
        self._draining = True
        loop.remove_reader(listener.fileno())
        listener.close()  # 1. no new connections
        # every socket accepted so far is made (and so registered)
        # before the drain decides what to wait for
        await asyncio.gather(*self._handshakes, return_exceptions=True)
        conns = list(self._conns)
        for conn in conns:
            conn.finish()  # 2. stop reading; undispatched lines drop
        pending: Set[asyncio.Future] = set()
        if conns:
            # 3. each answers what it accepted, flushes and closes
            _, pending = await asyncio.wait(
                [conn.closed for conn in conns], timeout=cfg.drain_timeout_s)
            for conn in conns:
                if not conn.closed.done():
                    conn.transport.abort()
        backend_clean = await self._close()  # 4. release the backend
        clean = backend_clean and not pending
        elapsed_ms = (time.monotonic() - started) * 1e3
        reg.histogram(self._metric("drain.duration_ms")).observe(elapsed_ms)
        reg.gauge(self._metric("drain.clean")).set(1.0 if clean else 0.0)
        _log.info("drain complete", clean=clean,
                  duration_ms=round(elapsed_ms, 3))
        return 0 if clean else 1

    # -- connection bookkeeping --------------------------------------------
    def _accept(self, listener: socket.socket) -> None:
        """The listener is readable: accept every waiting client and
        make its connection.  The accept loop is the server's own, not
        ``loop.create_server``'s, so a drain can wait for each accepted
        socket's connection to be made instead of stranding one whose
        setup had not yet run."""
        loop = self._loop
        while True:
            try:
                conn, _ = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:  # out of descriptors and the like:
                # keep serving the clients already connected, retry soon
                _log.warning("accept failed",
                             error=f"{type(exc).__name__}: {exc}")
                loop.remove_reader(listener.fileno())
                loop.call_later(1.0, self._listen_again, listener)
                return
            conn.setblocking(False)
            # answers are small and written one by one: never hold one
            # back for the ACK of the last (asyncio sets this only on
            # sockets it made with an explicit IPPROTO_TCP)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handshake = asyncio.ensure_future(
                loop.connect_accepted_socket(self._connection, conn))
            self._handshakes.add(handshake)
            handshake.add_done_callback(self._made)

    def _listen_again(self, listener: socket.socket) -> None:
        if not self._draining:
            self._loop.add_reader(listener.fileno(), self._accept, listener)

    def _made(self, handshake: asyncio.Task) -> None:
        self._handshakes.discard(handshake)
        if not handshake.cancelled() and handshake.exception() is not None:
            _log.warning("connection setup failed",
                         error=repr(handshake.exception()))

    def _connection(self) -> "_Connection":
        """The protocol factory: one :class:`_Connection` per accepted
        socket, registered in its ``connection_made``."""
        return _Connection(self)

    def _register(self, conn: "_Connection") -> None:
        self._conns.add(conn)
        registry().counter(self._metric("conns_total")).inc()
        self._conns_gauge.set(float(len(self._conns)))

    def _unregister(self, conn: "_Connection") -> None:
        self._conns.discard(conn)
        self._conns_gauge.set(float(len(self._conns)))


class _Connection(asyncio.Protocol):
    """One client connection of a :class:`LineServer`: frames and
    dispatches lines as they arrive, writes answers as they come (see
    the module docstring for the order and backpressure rules)."""

    def __init__(self, server: LineServer) -> None:
        self._server = server
        self._framer = LineFramer()
        self.transport: Optional[asyncio.Transport] = None
        #: resolves once the transport is gone and nothing is owed —
        #: what a drain waits for
        self.closed = server._loop.create_future()
        #: match requests submitted and not yet answered
        self._outstanding = 0
        #: a control op's answer in the making: dispatch holds behind it
        self._op: Optional[asyncio.Future] = None
        #: the transport's write buffer is past its high-water mark
        self._write_paused = False
        self._eof = False
        #: reading is over for good (EOF, drain, failure): answer what
        #: is owed, flush, close
        self._finishing = False
        self._lost = False
        self._broken = False

    # -- asyncio.Protocol --------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # registered before any line is read; a drain waits for every
        # accepted socket to get here, so it sees every connection
        self.transport = transport
        self._server._register(self)

    def data_received(self, data: bytes) -> None:
        self._framer.feed(data)
        self._dispatch()

    def eof_received(self) -> bool:
        # the client half-closed: its unterminated last line, if any,
        # is a request like the others; then answer, flush, close
        self._eof = True
        self._framer.feed(b"\n")
        self._dispatch()
        return True  # keep the write side open for what is owed

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._dispatch()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._finishing = self._lost = True
        op, self._op = self._op, None
        if op is not None:
            op.cancel()
        self._settle()

    # -- reading -----------------------------------------------------------
    def _dispatch(self) -> None:
        """Dispatch buffered lines in order until none is whole or the
        connection is held; then read on, pause, or finish."""
        if self._finishing:
            return
        try:
            while not (self._write_paused or self._op is not None):
                try:
                    line = self._framer.next_line()
                except OversizedLine as exc:
                    # discarded through its newline; the stream is still
                    # framed, so answer and keep serving
                    registry().counter(
                        self._server._metric("oversized_line")).inc()
                    self._send(self._server.bad_line(exc))
                    continue
                if line is None:
                    break
                self._line(line)
        except Exception as exc:  # a broken conn must never kill serving
            _log.warning("connection failed",
                         error=f"{type(exc).__name__}: {exc}")
            self.finish()
            return
        if self._write_paused or self._op is not None:
            self.transport.pause_reading()
        elif self._eof:
            self.finish()
        else:
            self.transport.resume_reading()

    def _line(self, raw: bytes) -> None:
        server = self._server
        if not raw.strip():
            return
        try:
            request = decode_line(raw)
        except ValueError as exc:
            self._send(server.bad_line(exc))
            return
        answer = control_op(server, request)
        if answer is not None:
            if inspect.isawaitable(answer):
                self._op = asyncio.ensure_future(answer)
                self._op.add_done_callback(self._op_answered)
            else:
                self._send(answer)
            return
        cap = server.config.conn_inflight
        if self._outstanding >= cap:
            # pipelining past the cap without reading responses: typed
            # shed, never unbounded buffering
            registry().counter(
                server._metric("conn.overloaded_total")).inc()
            self._send(server.reject(
                request, "overloaded",
                f"connection has {self._outstanding} responses "
                f"outstanding (cap {cap}); read before writing more"))
            return
        self._outstanding += 1
        server.submit(request, self.deliver)

    def _op_answered(self, op: asyncio.Future) -> None:
        if op is not self._op:
            return  # cancelled with its connection
        self._op = None
        try:
            self._send(op.result())
        except Exception as exc:
            _log.warning("connection failed",
                         error=f"{type(exc).__name__}: {exc}")
            self.finish()
        self._dispatch()  # the lines that waited behind it, in order
        self._settle()

    def finish(self) -> None:
        """Stop reading for good: lines not yet dispatched are not
        answered; what was accepted is, then the connection closes."""
        self._finishing = True
        self._framer.clear()
        self.transport.pause_reading()
        self._settle()

    # -- writing -----------------------------------------------------------
    def deliver(self, response: dict) -> None:
        """The backend's answer to a submitted request, written at once
        (on the loop thread)."""
        self._outstanding -= 1
        self._write(encode_response(response))
        self._settle()

    def _send(self, response: dict) -> None:
        """An answer the connection itself owes (a control op, a bad
        line, a refusal): not a submitted request, no slot to free."""
        self._write(encode_response(response))

    def _write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)
        elif not self._broken:
            # the client went away: drop what it can no longer read
            self._broken = True
            registry().counter(
                self._server._metric("conn.broken_total")).inc()

    def _settle(self) -> None:
        """With nothing owed: close once finishing (the transport
        flushes first), and resolve :attr:`closed` once it is gone."""
        if self._outstanding or self._op is not None:
            return
        if self._lost:
            if not self.closed.done():
                self.closed.set_result(None)
                self._server._unregister(self)
        elif self._finishing and not self.transport.is_closing():
            self.transport.close()
