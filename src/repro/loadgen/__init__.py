"""Open-loop load generation for the serving layer (``repro load``).

The instrument that makes scale claims falsifiable: drives
:class:`~repro.serve.service.MatchService` (in-process or over the
``serve_loop`` pipes) with realistic arrival processes and query
mixes, and records latency without coordinated omission.

* :mod:`repro.loadgen.arrivals` — Poisson, bursty (on/off modulated
  rate), uniform, and trace-replay arrival schedules.
* :mod:`repro.loadgen.mix` — heavy-tailed (Zipf) query popularity,
  mixed ``top_k``, optional dirty-query fraction.
* :mod:`repro.loadgen.harness` — the open-loop driver: every latency
  is measured from the request's *intended* arrival time on an
  injectable fake-clock-testable schedule.
* :mod:`repro.loadgen.report` — outcome classification
  (ok/degraded/shed/error/lost), exact mergeable
  fixed-bucket latency histograms, JSON artifacts, registry
  publication.
* :mod:`repro.loadgen.socketdrv` — the same harness pointed at a
  networked server (``repro serve --listen``) over one TCP
  connection, plus the ``info`` handshake that replaces local
  fitting for remote runs.

SLO evaluation and latency/throughput frontier sweeps over these runs
live in :mod:`repro.obs.slo` and :mod:`repro.obs.frontier`.
See DESIGN.md §11 for why open-loop + intended-start timing is the
only honest way to measure an overloaded service.
"""

from .arrivals import (bursty_arrivals, poisson_arrivals, replay_offsets,
                       schedule_from_traces, uniform_arrivals)
from .harness import LoadConfig, LoadHarness, build_schedule, run_schedule
from .mix import QueryMix
from .report import OUTCOMES, LoadReport, Sample, classify_response
from .socketdrv import SocketDriver, fetch_info, parse_address, probe_info

__all__ = [
    "uniform_arrivals", "poisson_arrivals", "bursty_arrivals",
    "replay_offsets", "schedule_from_traces",
    "QueryMix",
    "LoadConfig", "LoadHarness", "build_schedule", "run_schedule",
    "OUTCOMES", "LoadReport", "Sample", "classify_response",
    "SocketDriver", "fetch_info", "parse_address", "probe_info",
]
