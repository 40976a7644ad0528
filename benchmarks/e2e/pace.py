"""How slow is the box right now?  The reference kernel and the
arithmetic that takes the box out of a timing.

The benchmark runs on a few virtual CPUs of a shared host.  The same
code on the same inputs runs 30-45 % slower for seconds to minutes at a
time when the host's other tenants are busy: over seven minutes, the
median of a fixed numpy kernel taken over 20 s windows spread by
24-46 % between quartiles.  No run length the contract allows averages
that away, so every timed region of the benchmark is cut into
*slices*, and beside every slice runs a fixed **reference kernel** —
interpreter work, small dense products with transcendentals, one GEMM,
one pass over memory; nothing of the program — whose time, as a
multiple of :data:`NOMINAL_S`, is the slice's **slowdown**.

A timing metric is then read off the run in two steps
(:func:`steady`):

1. keep the *quiet* half of the slices, those with the smallest
   slowdown.  The choice looks only at the reference kernel, never at
   the program's own times, so a slower program does not change which
   slices are kept;
2. divide each kept time by its slice's slowdown (multiply a rate) and
   take the median.

On the seven-minute record above the two steps together bring the
spread of the 20 s windows to 2-7 %; selection alone gives 9-18 %,
division alone 2-15 % (a slow spell costs ``tanh`` twice what it costs
a GEMM, so no one kernel cancels it exactly).  Over ten ``route_hard``
runs made while the box ran 1.1 to 1.45 times slower than nominal, the
plain ``lo`` medians read 7.4-10.2 ms and the steady ones 6.4-7.0 ms.
The value reads as "milliseconds on the reference box when nobody else
is on it".  The plain medians over the whole run, and the slowdown
itself, are reported beside it as per-layer metrics.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NOMINAL_S", "QUIET_SHARE", "SMOOTH_S", "Reference", "Pacer", "Series",
           "quiet_slices", "steady"]

#: seconds one call of the reference kernel takes between two slices
#: of a workload (its arrays have left the caches) on the 2-vCPU
#: reference VM when it is quiet
NOMINAL_S = 0.57e-3
#: share of a run's slices a timing metric is read from
QUIET_SHARE = 0.5
#: seconds either side of a slice whose ticks count towards it
SMOOTH_S = 1.0


class Reference:
    """The reference kernel on fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250928)
        self._small = rng.random((64, 64), dtype=np.float32)
        self._wide = rng.random((64, 2000), dtype=np.float32)
        self._flat = rng.random(150_000, dtype=np.float32)

    def once(self) -> float:
        """Seconds of one call."""
        started = time.perf_counter()
        total = 0
        for i in range(1200):          # the interpreter
            total += i * i
        table = {}
        for i in range(150):
            table[i] = str(i)
        x = self._small                # small dense + transcendentals
        for _ in range(6):
            x = np.tanh(x @ self._small * 0.01)
        np.exp(x).sum()
        self._small @ self._wide       # one GEMM
        np.argpartition(self._flat, 10)  # one pass over memory
        return time.perf_counter() - started

    def slowdown(self, calls: int = 5, every_cpu: bool = False) -> float:
        """Median time of ``calls`` calls as a multiple of the nominal
        time.  With ``every_cpu`` the calls are made on each CPU this
        process may run on in turn and the CPUs' slowdowns averaged:
        the servers of a fleet run on all of them."""
        if not every_cpu:
            return statistics.median(
                self.once() for _ in range(calls)) / NOMINAL_S
        allowed = os.sched_getaffinity(0)
        try:
            each = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                each.append(statistics.median(
                    self.once() for _ in range(calls)))
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(each) / NOMINAL_S


class Pacer:
    """Cuts a run into slices: every :meth:`tick` times the reference
    kernel, and the slice between two ticks is as slow as the ticks on
    and near it.

    Single ticks on a CPU that has just woken scatter by 9-12 %
    (standard deviation over mean; the host parks an idle virtual CPU
    and brings it back cold), while the state of the box a tick is
    meant to catch lasts seconds; so a slice's slowdown is the mean of
    every tick from
    :data:`SMOOTH_S` before it starts to :data:`SMOOTH_S` after it
    ends."""

    def __init__(self, every_cpu: bool = False) -> None:
        self._reference = Reference()
        self._every_cpu = every_cpu
        #: (when, slowdown) of every tick
        self.ticks: List[Tuple[float, float]] = []

    @property
    def current(self) -> int:
        """Index of the slice now open (the next to be closed)."""
        return max(0, len(self.ticks) - 1)

    def tick(self) -> int:
        """Close the open slice and open the next; returns the index
        of the slice just closed (-1 on the first tick)."""
        started = time.perf_counter()
        slowdown = self._reference.slowdown(every_cpu=self._every_cpu)
        self.ticks.append(((started + time.perf_counter()) / 2.0, slowdown))
        return len(self.ticks) - 2

    @property
    def slowdowns(self) -> List[float]:
        """Slowdown of every closed slice, by slice index."""
        when = np.array([tick[0] for tick in self.ticks])
        slow = np.array([tick[1] for tick in self.ticks])
        return [float(slow[(when >= when[i] - SMOOTH_S)
                           & (when <= when[i + 1] + SMOOTH_S)].mean())
                for i in range(len(self.ticks) - 1)]


def quiet_slices(slowdowns: Sequence[float],
                 share: float = QUIET_SHARE) -> List[int]:
    """Indices of the quietest ``share`` of the slices (at least one),
    quietest first."""
    if not len(slowdowns):
        raise ValueError("no slices")
    keep = max(1, round(len(slowdowns) * share))
    return [int(i) for i in np.argsort(slowdowns, kind="stable")[:keep]]


def steady(values: Sequence[float], slowdowns: Sequence[float],
           rate: bool = False, slices: Optional[Sequence[int]] = None,
           share: float = QUIET_SHARE) -> float:
    """The median of ``values`` over the quiet slices with the box
    taken out: each time divided by its slice's slowdown, each rate
    multiplied.  ``values[i]`` belongs to slice ``slices[i]`` (to slice
    ``i`` when ``slices`` is not given); ``share`` of the slices that
    hold a value are kept."""
    values = np.asarray(values, dtype=np.float64)
    slowdowns = np.asarray(slowdowns, dtype=np.float64)
    where = np.arange(len(values)) if slices is None \
        else np.asarray(slices, dtype=np.int64)
    present = np.unique(where)  # a slice without a sample cannot be kept
    kept = np.isin(where,
                   present[quiet_slices(slowdowns[present], share)])
    factor = slowdowns[where[kept]]
    adjusted = values[kept] * factor if rate else values[kept] / factor
    return float(np.median(adjusted))


class Series:
    """The samples of one timing (or rate), each tagged with the slice
    it was taken in."""

    def __init__(self, rate: bool = False) -> None:
        self.rate = rate
        self.values: List[float] = []
        self.slices: List[int] = []

    def add(self, value: float, slice_index: int) -> None:
        self.values.append(float(value))
        self.slices.append(int(slice_index))

    def extend(self, values: Sequence[float], slice_index: int) -> None:
        for value in values:
            self.add(value, slice_index)

    def steady(self, slowdowns: Sequence[float],
               share: float = QUIET_SHARE) -> float:
        return steady(self.values, slowdowns, self.rate, self.slices, share)

    def raw(self) -> float:
        """The plain median over the whole run, the box left in."""
        return statistics.median(self.values)
