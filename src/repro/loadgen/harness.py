"""The open-loop load harness: schedule up front, measure from intent.

**Open-loop vs closed-loop.**  A closed-loop driver sends a request,
waits for the answer, then sends the next: the workload politely slows
down exactly when the service struggles, so a 100 ms stall costs *one*
sample 100 ms and every other sample looks great.  Real traffic is not
polite — independent clients keep arriving during a stall.  This
harness is open-loop: the full schedule of intended arrival times is
computed before the run (``repro.loadgen.arrivals``), and a request
whose slot has passed is dispatched immediately rather than skipped.

**Coordinated omission.**  Recording service time (response minus
*send*) under that backlog still hides the stall: queued requests were
delayed, but their delay is charged to nobody.  Every latency here is
measured from the request's **intended** arrival time on the schedule
— ``completion − intended_start`` — so queueing delay lands on the
requests that actually suffered it.  A single 100 ms stall therefore
shows up as a monotonically decreasing latency ramp across the queued
requests (100, 90, 80, … ms at 100 req/s), exactly what a client at
the original arrival times would have experienced.

The clock and sleeper are injectable, so the whole schedule semantics
— lag accounting, intended-start timing, the recovery ramp — is
provable on a deterministic fake clock (see
``tests/loadgen/test_harness.py``).

Two drive modes, chosen by the target's shape:

* a **callable** ``request -> response`` (e.g. ``MatchService.handle``
  or a stub) is driven synchronously — one in flight, but lateness is
  still accounted open-loop.  A bare
  :class:`~repro.serve.service.MatchService` is driven this way through
  its warmed ``handle``: every door answers a request inline, so in
  process that is ``repro serve --listen`` minus the socket;
* a *driver* — ``start(emit)`` / ``submit(request)`` / ``shutdown()``:
  a :class:`~repro.loadgen.socketdrv.SocketDriver` — is driven
  asynchronously: dispatch never waits for completions, and responses
  (sheds included) are matched back to their intended times by request
  id as they are emitted.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..serve.service import MatchService
from .arrivals import bursty_arrivals, poisson_arrivals, uniform_arrivals
from .mix import QueryMix
from .report import LoadReport, classify_response

__all__ = ["LoadConfig", "LoadHarness", "build_schedule", "run_schedule"]

PROCESSES = ("poisson", "bursty", "uniform", "replay")

#: (intended offset seconds, request body) — the unit of offered work
Scheduled = Tuple[float, dict]


@dataclasses.dataclass
class LoadConfig:
    """Shape of one offered workload (arrival process + query mix)."""

    #: arrival process: poisson | bursty | uniform | replay
    process: str = "poisson"
    #: offered rate in requests/second (base rate for bursty)
    rate: float = 50.0
    #: run length in seconds (replay: taken from the trace)
    duration: float = 1.0
    #: workload seed — pins arrivals *and* the query mix
    seed: int = 0
    #: bursty: on-phase rate (default 4x the base rate)
    burst_rate: Optional[float] = None
    #: bursty: phase lengths in seconds
    on_seconds: float = 0.25
    off_seconds: float = 0.25
    #: heavy-tail exponent of the vertex popularity (0 = uniform)
    skew: float = 1.1
    #: per-request deadline attached to every query (None = unbounded)
    budget_ms: Optional[float] = None
    #: fraction of dirty queries (unknown vertices)
    bad_fraction: float = 0.0
    #: replay process: the pre-built (offset, request) schedule
    replay: Optional[Sequence[Scheduled]] = None

    def __post_init__(self) -> None:
        if self.process not in PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"expected one of {PROCESSES}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.burst_rate is not None and self.burst_rate <= 0:
            raise ValueError("burst_rate must be positive")
        if self.on_seconds <= 0 or self.off_seconds <= 0:
            raise ValueError("phase lengths must be positive")
        if not 0.0 <= self.bad_fraction <= 1.0:
            raise ValueError("bad_fraction must be in [0, 1]")
        if self.skew < 0:
            raise ValueError("skew must be non-negative")
        if self.budget_ms is not None and self.budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        if self.process == "replay" and self.replay is None:
            raise ValueError("process 'replay' needs a replay schedule")

    def describe(self) -> dict:
        """The config as artifact metadata (replay schedule elided)."""
        doc = dataclasses.asdict(self)
        doc["replay"] = None if self.replay is None else len(self.replay)
        return doc


def build_schedule(config: LoadConfig,
                   vertices: Sequence[int]) -> List[Scheduled]:
    """The full offered workload, deterministic in ``config.seed``.

    Arrival offsets and the query mix draw from *separate* seeded RNG
    streams, so changing the arrival process never reshuffles which
    queries are asked — A/B runs compare like with like.
    """
    if config.process == "replay":
        schedule = [(float(offset), dict(request))
                    for offset, request in config.replay]
    else:
        # string seeds hash deterministically inside random.Random
        # (unlike tuple hashing, which PYTHONHASHSEED randomises)
        arrivals_rng = random.Random(f"arrivals:{config.seed}")
        if config.process == "uniform":
            offsets = uniform_arrivals(config.rate, config.duration)
        elif config.process == "poisson":
            offsets = poisson_arrivals(config.rate, config.duration,
                                       arrivals_rng)
        else:
            burst = config.burst_rate if config.burst_rate is not None \
                else 4.0 * config.rate
            offsets = bursty_arrivals(config.rate, burst,
                                      config.on_seconds,
                                      config.off_seconds,
                                      config.duration, arrivals_rng)
        mix = QueryMix(vertices, skew=config.skew,
                       budget_ms=config.budget_ms,
                       bad_fraction=config.bad_fraction,
                       rng=random.Random(f"mix:{config.seed}"))
        schedule = [(offset, mix.sample()) for offset in offsets]
    for index, (_, request) in enumerate(schedule):
        request["id"] = f"lg-{index}"
    return schedule


def run_schedule(target, schedule: Sequence[Scheduled], *,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 meta: Optional[dict] = None) -> LoadReport:
    """Drive ``schedule`` into ``target`` and measure from intent."""
    report = LoadReport(meta=meta)
    if isinstance(target, MatchService):
        target = target.warmup().handle
    if callable(target):
        _run_sync(target, schedule, report, clock, sleep)
    else:
        _run_service(target, schedule, report, clock, sleep)
    return report


def _wait_until(intended: float, report: LoadReport,
                clock: Callable[[], float],
                sleep: Callable[[float], None]) -> None:
    now = clock()
    if now < intended:
        sleep(intended - now)
    else:
        # behind schedule: dispatch immediately, never skip — the
        # request still exists, and its latency clock already started
        report.note_lag(now - intended)


def _run_sync(send: Callable[[dict], dict], schedule: Sequence[Scheduled],
              report: LoadReport, clock, sleep) -> None:
    epoch = clock()
    for offset, request in schedule:
        intended = epoch + offset
        _wait_until(intended, report, clock, sleep)
        report.note_offered()
        response = send(request)
        report.record(offset, classify_response(response),
                      (clock() - intended) * 1e3)
    report.finish(clock() - epoch)


def _run_service(service, schedule: Sequence[Scheduled],
                 report: LoadReport, clock, sleep) -> None:
    intended_by_id = {}
    offsets_by_id = {}

    def emit(response: dict) -> None:
        end = clock()
        request_id = response.get("id")
        intended = intended_by_id.pop(request_id, None)
        if intended is None:
            return  # not ours (or already accounted): ignore
        report.record(offsets_by_id.pop(request_id),
                      classify_response(response),
                      (end - intended) * 1e3)

    service.start(emit)
    epoch = clock()
    try:
        for offset, request in schedule:
            intended = epoch + offset
            _wait_until(intended, report, clock, sleep)
            request_id = request["id"]
            intended_by_id[request_id] = intended
            offsets_by_id[request_id] = offset
            report.note_offered()
            rejection = service.submit(request)
            if rejection is not None:  # shed on the admission path
                emit(rejection)
    finally:
        service.shutdown()
    report.finish(clock() - epoch)
    # anything still unanswered after drain is lost — should be zero
    for request_id, intended in list(intended_by_id.items()):
        intended_by_id.pop(request_id, None)
        report.record(offsets_by_id.pop(request_id), "lost",
                      (clock() - intended) * 1e3)


class LoadHarness:
    """One config + vertex space, reusable across runs and sweeps."""

    def __init__(self, config: LoadConfig,
                 vertices: Sequence[int] = (), *,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if config.process != "replay" and not vertices:
            raise ValueError("synthetic processes need a vertex space")
        self.config = config
        self.vertices = list(vertices)
        self._clock = clock
        self._sleep = sleep

    def schedule(self) -> List[Scheduled]:
        return build_schedule(self.config, self.vertices)

    def run(self, target) -> LoadReport:
        report = run_schedule(target, self.schedule(),
                              clock=self._clock, sleep=self._sleep,
                              meta={"config": self.config.describe()})
        return report
