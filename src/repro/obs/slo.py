"""Declarative SLOs evaluated against a load run, with budget math.

An :class:`SLOSpec` states the operating objectives a run must meet —
latency quantile bounds (measured from *intended* arrival time, so
queueing delay counts; see ``repro.loadgen``), a minimum availability,
and caps on the degraded/shed fractions.  :func:`evaluate_slo` checks a
run summary (the dict :meth:`repro.loadgen.LoadReport.summary` emits,
or any dict with the same keys) against the spec and returns per-
objective verdicts plus error-budget math:

* **availability** counts a request as answered when the service
  returned a result at any tier — ``ok`` or ``degraded``.  Shed,
  errored and lost requests all spend error budget.
* **burn rate** is ``observed_failure / allowed_failure`` where
  ``allowed_failure = 1 - availability_target``: 1.0 means the run
  consumed its budget exactly; 2.0 means a sustained run like this
  exhausts a compliance window's budget in half the window.
* **budget remaining** is ``max(0, 1 - burn_rate)`` — the fraction of
  this window's error budget left over.

Latency objectives are evaluated over *answered* requests (ok +
degraded): a shed is an availability failure, not a fast success, and
letting its sub-millisecond rejection into the latency distribution
would reward shedding with a better p99.

Specs serialise to/from plain dicts (JSON files, frontier artifacts);
unknown keys raise so a typo'd objective cannot silently pass.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["SLOSpec", "ObjectiveResult", "SLOResult", "evaluate_slo",
           "format_slo", "load_spec"]


@dataclasses.dataclass(frozen=True)
class SLOSpec:
    """The declarative objectives; ``None`` disables an objective."""

    name: str = "default"
    #: latency bounds in milliseconds, per quantile
    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    #: minimum fraction of offered requests answered (ok + degraded)
    availability: Optional[float] = None
    #: maximum fraction of offered requests answered degraded
    max_degraded: Optional[float] = None
    #: maximum fraction of offered requests shed by admission control
    max_shed: Optional[float] = None

    def __post_init__(self) -> None:
        for field in ("p50_ms", "p95_ms", "p99_ms"):
            value = getattr(self, field)
            if value is not None and value <= 0:
                raise ValueError(f"{field} must be positive")
        for field in ("availability", "max_degraded", "max_shed"):
            value = getattr(self, field)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be in [0, 1]")
        if all(getattr(self, f.name) is None
               for f in dataclasses.fields(self) if f.name != "name"):
            raise ValueError("an SLO spec needs at least one objective")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if getattr(self, f.name) is not None or f.name == "name"}

    @classmethod
    def from_dict(cls, doc: dict) -> "SLOSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown SLO objective(s): "
                             f"{', '.join(sorted(unknown))}")
        return cls(**doc)


@dataclasses.dataclass(frozen=True)
class ObjectiveResult:
    """One objective's verdict: what was required, what was measured."""

    objective: str
    bound: float
    measured: Optional[float]
    #: "<=" for caps (latency, degraded, shed); ">=" for availability
    direction: str
    ok: bool


@dataclasses.dataclass(frozen=True)
class SLOResult:
    """All objective verdicts plus the availability budget math."""

    spec: SLOSpec
    objectives: Tuple[ObjectiveResult, ...]
    #: None when the spec has no availability objective
    burn_rate: Optional[float]
    budget_remaining: Optional[float]

    @property
    def ok(self) -> bool:
        return all(objective.ok for objective in self.objectives)

    @property
    def violations(self) -> List[ObjectiveResult]:
        return [o for o in self.objectives if not o.ok]

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "burn_rate": self.burn_rate,
            "budget_remaining": self.budget_remaining,
            "objectives": [dataclasses.asdict(o) for o in self.objectives],
        }


def _cap(name: str, bound: Optional[float],
         measured: Optional[float]) -> Optional[ObjectiveResult]:
    if bound is None:
        return None
    # a missing measurement fails the objective loudly: an SLO that
    # passes because nothing was measured is not an SLO
    ok = measured is not None and measured <= bound
    return ObjectiveResult(name, bound, measured, "<=", ok)


def evaluate_slo(spec: SLOSpec, summary: dict) -> SLOResult:
    """Check one run ``summary`` against ``spec`` (see module doc)."""
    objectives: List[ObjectiveResult] = []
    for field, key in (("p50_ms", "p50_ms"), ("p95_ms", "p95_ms"),
                       ("p99_ms", "p99_ms")):
        result = _cap(field, getattr(spec, field), summary.get(key))
        if result is not None:
            objectives.append(result)
    burn_rate = budget_remaining = None
    if spec.availability is not None:
        measured = summary.get("availability")
        ok = measured is not None and measured >= spec.availability
        objectives.append(ObjectiveResult(
            "availability", spec.availability, measured, ">=", ok))
        if measured is not None:
            allowed = 1.0 - spec.availability
            observed = 1.0 - measured
            if allowed > 0.0:
                burn_rate = observed / allowed
            else:
                burn_rate = 0.0 if observed <= 0.0 else float("inf")
            budget_remaining = max(0.0, 1.0 - burn_rate)
    for field, key in (("max_degraded", "degraded_fraction"),
                       ("max_shed", "shed_fraction")):
        result = _cap(field, getattr(spec, field), summary.get(key))
        if result is not None:
            objectives.append(result)
    return SLOResult(spec=spec, objectives=tuple(objectives),
                     burn_rate=burn_rate,
                     budget_remaining=budget_remaining)


def format_slo(result: SLOResult, *, label: Optional[str] = None) -> str:
    """One aligned verdict line per objective, plus the budget line.

    ``label`` tags the header (e.g. ``window 3/5`` or ``shard 2``) so a
    live judging loop can emit many verdicts tellingly.
    """
    tag = f" [{label}]" if label else ""
    lines = [f"SLO {result.spec.name!r}{tag}: "
             f"{'PASS' if result.ok else 'FAIL'}"]
    for objective in result.objectives:
        measured = ("unmeasured" if objective.measured is None
                    else f"{objective.measured:.6g}")
        mark = "ok" if objective.ok else "VIOLATED"
        lines.append(f"  {objective.objective:14s} {objective.direction} "
                     f"{objective.bound:<12.6g} measured {measured:<12s} "
                     f"{mark}")
    if result.burn_rate is not None:
        lines.append(f"  error budget: burn rate {result.burn_rate:.3g}x, "
                     f"{result.budget_remaining:.1%} of this window's "
                     f"budget remaining")
    return "\n".join(lines)


def load_spec(path) -> SLOSpec:
    """An :class:`SLOSpec` from a JSON file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"SLO spec {path} must be a JSON object")
    return SLOSpec.from_dict(doc)
