"""Driving a networked server from the load harness.

:class:`SocketDriver` speaks the TCP front end's JSONL protocol
(:mod:`repro.netserve`) behind exactly the duck-type
``run_schedule`` already drives — ``start(emit)`` / ``submit(request)``
/ ``shutdown()`` — so ``repro load run --connect HOST:PORT`` reuses
every line of the open-loop harness, the coordinated-omission
accounting, and the report format unchanged.  The only difference is
where the latency goes: over a socket it includes framing and the
wire.

The shutdown handshake mirrors the server's drain semantics: the
driver half-closes the write side (``SHUT_WR``), the server sees EOF,
answers everything still in flight on the connection, flushes, and
closes — the reader thread then drains those trailing responses before
``shutdown()`` returns, so the harness's lost-request sweep sees a
fully-accounted run.

:func:`fetch_info` performs the ``info`` handshake on a throwaway
connection, giving remote runs their vertex space without fitting a
local matcher; :func:`probe_info` is its never-raising form — a typed
``unavailable`` response instead of an exception — which is what the
shard supervisor's health checks poll (:mod:`repro.shard`).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Callable, Optional, Tuple

from ..netserve.protocol import request_op
from ..obs import get_logger
from ..serve.errors import error_response

__all__ = ["SocketDriver", "fetch_info", "parse_address", "probe_info"]

_log = get_logger("repro.loadgen.socketdrv")


def parse_address(spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; raises ``ValueError`` loudly.

    Host defaults to localhost when the spec is just ``:PORT``.
    """
    host, sep, port_text = spec.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    port = int(port_text)
    if port >= 65536:
        raise ValueError(f"port out of range in {spec!r}")
    # port 0 is legal on the listen side (bind an ephemeral port);
    # connecting to it fails naturally
    return (host or "127.0.0.1", port)


def fetch_info(address: Tuple[str, int], *,
               timeout: float = 10.0, attempts: int = 2) -> dict:
    """The server's ``info`` payload, via a short-lived connection.

    ``timeout`` bounds every socket operation of one attempt
    (:func:`~repro.netserve.protocol.request_op`), so a hung server
    costs at most ``attempts * timeout`` instead of stalling the harness
    forever.  One retry by default: a server mid-restart or a dropped
    SYN should not fail a whole load run, but a genuinely dead one
    should fail it fast.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    last: Exception = ConnectionError("unreachable")
    for _ in range(attempts):
        try:
            return request_op(address, "info", timeout=timeout)
        except (OSError, ValueError, RuntimeError) as exc:
            # OSError covers refused/reset/timeout; ValueError a
            # garbled response line; RuntimeError a typed server error
            last = exc
            _log.warning("info handshake failed", host=address[0],
                         port=address[1], error=f"{type(exc).__name__}: "
                                                f"{exc}")
    raise last


def probe_info(address: Tuple[str, int], *, timeout: float = 2.0,
               attempts: int = 1) -> dict:
    """:func:`fetch_info` as a health check: never raises.

    Returns ``{"ok": True, "info": {...}}`` from a live server, or a
    synthesized typed failure ``{"ok": False, "error": {"type":
    "unavailable", ...}}`` matching the serve error taxonomy — so a
    poller (the shard supervisor, a script) branches on a response
    shape it already knows instead of a zoo of socket exceptions.
    """
    try:
        return {"ok": True,
                "info": fetch_info(address, timeout=timeout,
                                   attempts=attempts)}
    except Exception as exc:
        return {"ok": False,
                "error": {"type": "unavailable",
                          "message": f"info probe of {address[0]}:"
                                     f"{address[1]} failed: "
                                     f"{type(exc).__name__}: {exc}"}}


class SocketDriver:
    """One TCP connection driven open-loop by ``run_schedule``.

    Not a pool: one driver is one connection, the way one harness run
    is one client.  Sweeps construct a fresh driver per point so every
    measurement starts from a clean connection (and a server-side
    outstanding count of zero).
    """

    def __init__(self, address: Tuple[str, int], *,
                 connect_timeout: float = 10.0,
                 drain_timeout: float = 30.0) -> None:
        self.address = address
        self.connect_timeout = connect_timeout
        self.drain_timeout = drain_timeout
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._emit: Optional[Callable[[dict], None]] = None
        self._send_lock = threading.Lock()
        self._down = threading.Event()

    # -- run_schedule duck-type -------------------------------------------
    def start(self, emit: Callable[[dict], None]) -> None:
        """Connect and start draining responses into ``emit``."""
        if self._sock is not None:
            raise RuntimeError("driver already started")
        self._emit = emit
        self._sock = socket.create_connection(
            self.address, timeout=self.connect_timeout)
        # reads block until the server answers or closes; the drain
        # handshake (not a read timeout) is what ends the stream
        self._sock.settimeout(None)
        self._reader = threading.Thread(target=self._reader_main,
                                        name="socketdrv-reader",
                                        daemon=True)
        self._reader.start()

    def submit(self, request: Any) -> Optional[dict]:
        """Send one request line; returns ``None`` when written or a
        typed ``unavailable`` response when the connection is gone —
        the harness accounts it like any server-side rejection instead
        of crashing the dispatch loop mid-schedule."""
        line = json.dumps(request, separators=(",", ":")).encode("utf-8") \
            + b"\n"
        if not self._down.is_set():
            try:
                with self._send_lock:
                    self._sock.sendall(line)
                return None
            except OSError as exc:
                self._down.set()
                _log.warning("connection lost mid-run", error=str(exc))
        request_id = request.get("id") if isinstance(request, dict) else None
        return error_response(request_id, "unavailable",
                              "connection to server lost")

    def shutdown(self) -> None:
        """Half-close, drain trailing responses, then tear down."""
        sock, reader = self._sock, self._reader
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_WR)  # server sees EOF, flushes
        except OSError:
            pass
        if reader is not None:
            reader.join(timeout=self.drain_timeout)
            if reader.is_alive():
                _log.warning("reader did not drain in time; closing "
                             "socket under it")
        try:
            sock.close()
        except OSError:
            pass
        self._sock = None
        self._reader = None

    # -- internals ---------------------------------------------------------
    def _reader_main(self) -> None:
        stream = self._sock.makefile("rb")
        try:
            for raw in stream:
                if not raw.strip():
                    continue
                try:
                    response = json.loads(raw)
                except ValueError:
                    _log.warning("undecodable response line dropped")
                    continue
                self._emit(response)
        except (OSError, ValueError) as exc:
            _log.warning("response stream failed", error=str(exc))
        finally:
            self._down.set()
