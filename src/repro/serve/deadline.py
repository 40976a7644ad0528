"""Deadline propagation: one budget object threaded through a request.

A :class:`Deadline` is created once at admission from the request's
``budget_ms`` and handed down the pipeline; every stage boundary calls
:meth:`Deadline.check` instead of running unbounded.  The guarantee this
buys is *bounded overshoot*: a request returns within its budget plus at
most one stage, because the longest a stage can run past the deadline is
until its own next check.

The clock is injectable (monotonic by default) so tests can drive time
deterministically, and so retries can compose:
``retry_io(..., max_elapsed=deadline.remaining())`` keeps backoff from
overshooting the request budget (see :func:`repro.iosafe.retry_io`).
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Callable, Optional

from .errors import DeadlineExceeded

__all__ = ["Deadline", "is_budget_ms"]


def is_budget_ms(value: Any) -> bool:
    """Is ``value`` a usable wire ``budget_ms`` — a positive, *finite*
    number?  ``json.loads`` admits ``NaN``/``Infinity`` (and integers
    past float range); a budget that never expires is no budget, and a
    ``NaN`` would make an exported trace invalid strict JSON."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and 0 < value <= sys.float_info.max


class Deadline:
    """A monotonic-clock time budget for one request.

    ``budget_seconds=None`` makes an unbounded deadline whose ``check``
    never raises — callers need no special casing for "no budget".
    """

    __slots__ = ("budget", "_started", "_expires_at", "_clock")

    def __init__(self, budget_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError("deadline budget must be positive")
        self._clock = clock
        self._started = clock()
        self.budget = math.inf if budget_seconds is None \
            else float(budget_seconds)
        self._expires_at = self._started + self.budget

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(seconds, clock=clock)

    @classmethod
    def unbounded(cls,
                  clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(None, clock=clock)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self._expires_at)

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unbounded, may be
        negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, stage: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        This is the stage-boundary hook: cheap enough (one clock read
        and a comparison) to call before every chunk of work.
        """
        now = self._clock()
        if now >= self._expires_at:
            raise DeadlineExceeded(stage=stage, budget=self.budget,
                                   elapsed=now - self._started)
