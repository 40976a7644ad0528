"""Worker lifecycle: spawn, health-check, restart, give up.

:class:`WorkerSupervisor` owns N ``repro serve --listen`` subprocesses
(one per shard slot) and runs the restart policy the router depends
on.  Each worker binds an ephemeral port and publishes it through a
per-slot *port file* (written atomically by the serve CLI), which is
the spawn handshake: the supervisor deletes the file before every
(re)spawn, polls for it to reappear, then confirms liveness with the
same ``info`` probe the load harness speaks
(:func:`repro.loadgen.probe_info`) — a worker is "live" only once it
answers protocol, not merely once it has a pid.

Restart policy, per slot:

* a worker whose process exits (crash, SIGKILL, OOM) is respawned
  after an exponential backoff (``backoff_base_s`` doubling per recent
  death, capped at ``backoff_cap_s``);
* deaths are counted in a sliding ``flap_window_s`` window; at
  ``flap_max`` deaths inside the window the slot is marked **dead**
  and never respawned — a flapping worker (bad config, poisoned
  checkpoint) must not burn CPU refitting forever; the router keeps
  answering hits from its merged table, and deeper requests come back
  typed ``unavailable``;
* a worker that has a pid but never becomes healthy within
  ``spawn_timeout_s`` is killed and counted as a death like any crash.

The monitor runs on one daemon thread with a coarse poll — worker fits
take seconds, so sub-poll-interval reaction buys nothing.  All state
transitions export as ``shard.<slot>.*`` metrics, and pid files let
fault-injection harnesses (tests, the CI job) SIGKILL a specific
worker from outside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import subprocess
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from ..loadgen.socketdrv import parse_address, probe_info
from ..obs import get_logger, registry

__all__ = ["SupervisorConfig", "WorkerSupervisor", "STATE_STARTING",
           "STATE_LIVE", "STATE_BACKOFF", "STATE_DEAD", "STATE_STOPPED"]

_log = get_logger("repro.shard.supervisor")

STATE_STARTING = "starting"
STATE_LIVE = "live"
STATE_BACKOFF = "backoff"
STATE_DEAD = "dead"
STATE_STOPPED = "stopped"


@dataclasses.dataclass
class SupervisorConfig:
    """Restart-policy knobs (see module docstring)."""

    #: seconds a spawned worker gets to publish its port and answer info
    spawn_timeout_s: float = 300.0
    #: per-probe budget of the health check's info handshake
    health_timeout_s: float = 5.0
    #: monitor poll cadence
    poll_interval_s: float = 0.2
    #: first-restart backoff; doubles per recent death
    backoff_base_s: float = 0.5
    #: backoff ceiling
    backoff_cap_s: float = 10.0
    #: deaths inside the flap window that mark the slot dead for good
    flap_max: int = 5
    #: sliding window (seconds) the deaths are counted in
    flap_window_s: float = 60.0
    #: seconds stop() waits after SIGTERM before escalating to SIGKILL
    stop_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        for field in ("spawn_timeout_s", "health_timeout_s",
                      "poll_interval_s", "backoff_base_s", "backoff_cap_s",
                      "flap_window_s", "stop_timeout_s"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.flap_max < 1:
            raise ValueError("flap_max must be at least 1")


class _Worker:
    """Mutable per-slot state, touched only under the supervisor lock
    (or before the monitor thread exists)."""

    def __init__(self, slot: int, work_dir: Path) -> None:
        self.slot = slot
        self.port_file = work_dir / f"worker{slot}.port"
        self.pid_file = work_dir / f"worker{slot}.pid"
        self.log_path = work_dir / f"worker{slot}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.log_handle = None
        self.state = STATE_STARTING
        self.address: Optional[Tuple[str, int]] = None
        self.spawned_at = 0.0
        self.next_attempt = 0.0
        self.deaths: Deque[float] = deque()
        self.restarts = 0


class WorkerSupervisor:
    """Spawn and babysit one worker subprocess per shard slot.

    ``command_for_slot(slot, port_file)`` returns the argv for that
    slot's worker; the worker must write ``host:port`` to ``port_file``
    once it listens (``repro serve --listen 127.0.0.1:0 --port-file
    ...`` does).  The supervisor is the router's *endpoint provider*:
    ``count``, :meth:`address_of` and :meth:`live_count` are the whole
    contract, all safe to call from any thread.
    """

    def __init__(self,
                 command_for_slot: Callable[[int, Path], Sequence[str]],
                 count: int, work_dir: Path,
                 config: Optional[SupervisorConfig] = None) -> None:
        if count < 1:
            raise ValueError("count must be at least 1")
        self.count = count
        self.config = config if config is not None else SupervisorConfig()
        self.work_dir = Path(work_dir)
        self._command_for_slot = command_for_slot
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- endpoint-provider surface -----------------------------------------
    def address_of(self, slot: int) -> Optional[Tuple[str, int]]:
        """Where slot's worker listens, ``None`` while it is not live."""
        with self._lock:
            worker = self._workers[slot]
            return worker.address if worker.state == STATE_LIVE else None

    def live_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers
                       if w.state == STATE_LIVE)

    def states(self) -> List[str]:
        with self._lock:
            return [w.state for w in self._workers]

    # -- lifecycle ----------------------------------------------------------
    def start(self, *, wait_healthy: bool = True,
              timeout: Optional[float] = None) -> "WorkerSupervisor":
        """Spawn every worker and start the monitor; with
        ``wait_healthy`` (the default) block until all answer info or
        raise ``RuntimeError`` (after stopping what did spawn)."""
        if self._workers:
            raise RuntimeError("supervisor already started")
        self.work_dir.mkdir(parents=True, exist_ok=True)
        now = time.monotonic()
        with self._lock:
            for slot in range(self.count):
                worker = _Worker(slot, self.work_dir)
                self._workers.append(worker)
                self._spawn(worker, now)
        self._monitor = threading.Thread(target=self._monitor_main,
                                         name="shard-supervisor",
                                         daemon=True)
        self._monitor.start()
        if wait_healthy:
            budget = timeout if timeout is not None \
                else self.config.spawn_timeout_s
            deadline = time.monotonic() + budget
            while self.live_count() < self.count:
                if time.monotonic() >= deadline or any(
                        state == STATE_DEAD for state in self.states()):
                    states = ", ".join(
                        f"{slot}:{state}"
                        for slot, state in enumerate(self.states()))
                    self.stop()
                    raise RuntimeError(
                        f"workers failed to become healthy in {budget:g}s "
                        f"({states}); logs in {self.work_dir}")
                time.sleep(min(0.05, self.config.poll_interval_s))
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """SIGTERM every worker (their own graceful drain), reap, and
        escalate to SIGKILL past ``stop_timeout_s``.  Idempotent."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        budget = timeout if timeout is not None \
            else self.config.stop_timeout_s
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            if worker.proc is not None and worker.proc.poll() is None:
                with contextlib.suppress(OSError):
                    worker.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + budget
        for worker in workers:
            if worker.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                _log.warning("worker ignored SIGTERM; killing",
                             slot=worker.slot)
                with contextlib.suppress(OSError):
                    worker.proc.kill()
                worker.proc.wait()
            with self._lock:
                worker.state = STATE_STOPPED
                worker.address = None
        # every log, a dead worker's too: ``_note_death`` cleared its
        # proc but not its log handle
        for worker in workers:
            if worker.log_handle is not None:
                worker.log_handle.close()
                worker.log_handle = None

    # -- internals ----------------------------------------------------------
    def _spawn(self, worker: _Worker, now: float) -> None:
        """(Re)start one worker process (lock held)."""
        worker.port_file.unlink(missing_ok=True)
        if worker.log_handle is None:
            worker.log_handle = open(worker.log_path, "ab")
        command = list(self._command_for_slot(worker.slot,
                                              worker.port_file))
        # own session: a Ctrl+C aimed at the router must reach workers
        # as the supervisor's ordered SIGTERM, not as a group signal
        worker.proc = subprocess.Popen(
            command, stdout=worker.log_handle, stderr=worker.log_handle,
            start_new_session=True)
        worker.pid_file.write_text(f"{worker.proc.pid}\n")
        worker.state = STATE_STARTING
        worker.address = None
        worker.spawned_at = now
        if worker.deaths:
            worker.restarts += 1
            registry().counter(
                f"shard.{worker.slot}.restarts_total").inc()
            registry().counter("shard.restarts_total").inc()
        _log.info("worker spawned", slot=worker.slot, pid=worker.proc.pid,
                  restarts=worker.restarts)

    def _monitor_main(self) -> None:
        while not self._stop_event.wait(self.config.poll_interval_s):
            now = time.monotonic()
            for worker in self._workers:
                try:
                    self._step(worker, now)
                except Exception as exc:  # the monitor must never die
                    _log.error("supervisor step failed", slot=worker.slot,
                               error=f"{type(exc).__name__}: {exc}")

    def _step(self, worker: _Worker, now: float) -> None:
        with self._lock:
            state = worker.state
            proc = worker.proc
        if state in (STATE_DEAD, STATE_STOPPED):
            return
        if state == STATE_BACKOFF:
            if now >= worker.next_attempt:
                with self._lock:
                    self._spawn(worker, now)
            return
        exit_code = proc.poll() if proc is not None else None
        if exit_code is not None:
            self._note_death(worker, now, f"exited with {exit_code}")
            return
        if state == STATE_STARTING:
            self._check_startup(worker, now)

    def _check_startup(self, worker: _Worker, now: float) -> None:
        address = worker.address
        if address is None:
            address = self._read_port_file(worker)
        if address is not None:
            probe = probe_info(address,
                               timeout=self.config.health_timeout_s)
            if probe["ok"]:
                with self._lock:
                    worker.address = address
                    worker.state = STATE_LIVE
                registry().gauge(f"shard.{worker.slot}.up").set(1.0)
                _log.info("worker live", slot=worker.slot,
                          host=address[0], port=address[1])
                return
        if now - worker.spawned_at > self.config.spawn_timeout_s:
            _log.warning("worker never became healthy; killing",
                         slot=worker.slot)
            with contextlib.suppress(OSError):
                worker.proc.kill()
            worker.proc.wait()
            self._note_death(worker, now, "spawn timeout")

    def _read_port_file(self, worker: _Worker) -> Optional[Tuple[str, int]]:
        try:
            text = worker.port_file.read_text().strip()
        except OSError:
            return None
        if not text:
            return None
        try:
            return parse_address(text)
        except ValueError:
            _log.warning("unparseable port file", slot=worker.slot,
                         content=text)
            return None

    def _note_death(self, worker: _Worker, now: float, why: str) -> None:
        reg = registry()
        reg.counter(f"shard.{worker.slot}.deaths_total").inc()
        with self._lock:
            worker.address = None
            worker.proc = None
            worker.deaths.append(now)
            while worker.deaths and \
                    now - worker.deaths[0] > self.config.flap_window_s:
                worker.deaths.popleft()
            deaths_in_window = len(worker.deaths)
            if deaths_in_window >= self.config.flap_max:
                worker.state = STATE_DEAD
            else:
                backoff = min(
                    self.config.backoff_base_s * 2 ** (deaths_in_window - 1),
                    self.config.backoff_cap_s)
                worker.state = STATE_BACKOFF
                worker.next_attempt = now + backoff
        reg.gauge(f"shard.{worker.slot}.up").set(0.0)
        if worker.state == STATE_DEAD:
            reg.gauge(f"shard.{worker.slot}.dead").set(1.0)
            _log.error("worker flapping; marked dead", slot=worker.slot,
                       deaths_in_window=deaths_in_window, last_death=why)
        else:
            _log.warning("worker died; restart scheduled",
                         slot=worker.slot, why=why,
                         backoff_s=round(worker.next_attempt - now, 3))
