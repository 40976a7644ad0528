"""Circuit breaker around a failure-prone backend (a shard worker).

The classic three-state machine:

* **closed** — calls pass through; outcomes land in a sliding window.
  When the window holds at least ``min_calls`` outcomes and the failure
  rate reaches ``failure_threshold``, the breaker opens.
* **open** — calls are refused at admission (no backend work, no
  pile-up behind a dead worker).  After ``cooldown`` seconds the next
  call is admitted as a probe.
* **half-open** — admission hands out a single probe slot: one call
  runs at a time and every other is refused until the probe's outcome
  is recorded.  Its success closes the breaker (window cleared), its
  failure re-opens it and the cooldown restarts.

Every transition is recorded in the :mod:`repro.obs` metrics registry:
``serve.breaker.<name>.state`` is a gauge holding the state code
(0 = closed, 1 = half-open, 2 = open) so exported metrics show *when*
a backend was considered dead, and counters track successes, failures,
rejections and total opens.

The clock is injectable **per instance** for deterministic tests: each
breaker reads cooldowns only from its own ``self._clock``, and holds no
class-level or module-level time state — two breakers driven by two
independent fake clocks in one test (the shard router's per-shard
breaker suite does exactly this) cannot interfere through timing.  The
only cross-instance state is the metrics registry, keyed by breaker
*name*: give concurrently-live breakers distinct names or their
``serve.breaker.<name>.*`` instruments are shared.  All methods are
thread-safe.  The shard router keeps one breaker per worker: each
call it admits through :meth:`allows_call` ends in exactly one
``record_*`` — a late or cancelled call counts as a failure — so the
half-open probe slot is always handed back.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

from ..obs import add_trace_event, get_logger, registry

__all__ = ["CircuitBreaker", "STATE_CLOSED", "STATE_HALF_OPEN", "STATE_OPEN"]

_log = get_logger("repro.serve.breaker")

STATE_CLOSED = "closed"
STATE_HALF_OPEN = "half_open"
STATE_OPEN = "open"

#: gauge encoding — chosen so "bigger is worse" in dashboards
STATE_CODES = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class CircuitBreaker:
    """Failure-rate circuit breaker with a sliding outcome window."""

    def __init__(self, name: str, *, window: int = 8,
                 failure_threshold: float = 0.5, min_calls: int = 3,
                 cooldown: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_calls < 1:
            raise ValueError("min_calls must be at least 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.cooldown = cooldown
        self._clock = clock
        self._outcomes: deque = deque(maxlen=window)  # True = failure
        self._state = STATE_CLOSED
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        self._lock = threading.RLock()
        self._set_state_gauge()

    # -- metrics -----------------------------------------------------------
    def _metric(self, suffix: str) -> str:
        return f"serve.breaker.{self.name}.{suffix}"

    def _set_state_gauge(self) -> None:
        registry().gauge(self._metric("state")).set(STATE_CODES[self._state])

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        _log.warning("breaker transition", breaker=self.name,
                     from_state=self._state, to_state=state)
        # Lands in the active request's trace (the transition happens on
        # the thread driving the call that tripped/probed the breaker).
        add_trace_event("breaker", breaker=self.name,
                        from_state=self._state, to_state=state)
        self._state = state
        self._set_state_gauge()
        if state == STATE_OPEN:
            registry().counter(self._metric("open_total")).inc()

    # -- state machine -----------------------------------------------------
    def _maybe_half_open(self) -> None:
        """open -> half-open once the cooldown has elapsed (lock held)."""
        if self._state == STATE_OPEN and \
                self._clock() - self._opened_at >= self.cooldown:
            self._transition(STATE_HALF_OPEN)
            self._probe_in_flight = False

    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allows_call(self) -> bool:
        """Admit one call, or refuse it (counted in ``rejected_total``).
        Closed admits every call; half-open admits one probe and holds
        its slot until :meth:`record_success` or :meth:`record_failure`;
        open admits none.  An admitted call must record its outcome."""
        with self._lock:
            self._maybe_half_open()
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            registry().counter(self._metric("rejected_total")).inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            registry().counter(self._metric("successes_total")).inc()
            if self._state == STATE_HALF_OPEN:
                # The probe came back healthy: full reset.
                self._probe_in_flight = False
                self._outcomes.clear()
                self._transition(STATE_CLOSED)
            elif self._state == STATE_CLOSED:
                self._outcomes.append(False)

    def record_failure(self) -> None:
        with self._lock:
            registry().counter(self._metric("failures_total")).inc()
            if self._state == STATE_HALF_OPEN:
                # The probe failed: back to open, cooldown restarts.
                self._probe_in_flight = False
                self._opened_at = self._clock()
                self._transition(STATE_OPEN)
                return
            if self._state != STATE_CLOSED:
                return
            self._outcomes.append(True)
            if len(self._outcomes) >= self.min_calls:
                rate = sum(self._outcomes) / len(self._outcomes)
                if rate >= self.failure_threshold:
                    self._opened_at = self._clock()
                    self._transition(STATE_OPEN)

    def force_open(self) -> None:
        """Administratively open the breaker (ops toggle / tests)."""
        with self._lock:
            self._opened_at = self._clock()
            self._transition(STATE_OPEN)

    def reset(self) -> None:
        """Administratively close the breaker and clear its window."""
        with self._lock:
            self._outcomes.clear()
            self._probe_in_flight = False
            self._opened_at = None
            self._transition(STATE_CLOSED)
