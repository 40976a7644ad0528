"""Shared infrastructure for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the paper:
it builds the benchmark datasets, fits every method, prints the rows the
paper reports (paper value next to measured value where applicable) and
asserts the qualitative *shape* — who wins, roughly by how much — while
``pytest-benchmark`` records the timing of a representative unit.

Heavy work runs once inside module-scoped fixtures; ``benchmark.pedantic``
with a single round wraps the representative call so the harness never
re-trains models dozens of times.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import (ALIGNZeroShot, CLIPZeroShot, GPPTMatcher,
                             IMRAMMatcher, TransAEMatcher, ViLBERTMatcher,
                             VisualBERTMatcher)
from repro.clip.zoo import PretrainedBundle
from repro.obs import format_profile
from repro.core import (CrossEM, CrossEMConfig, CrossEMPlus,
                        CrossEMPlusConfig, RankingResult)
from repro.core.metrics import EfficiencyReport
from repro.datasets import CrossModalDataset, VertexSplit, train_test_split

#: training epochs for the tuned methods across all benches
TUNE_EPOCHS = 10
TUNE_LR = 1e-3


@dataclasses.dataclass
class MethodResult:
    """One table row: accuracy plus the efficiency record of a method
    that trains (``None`` for one that does not — the paper's "-")."""

    method: str
    ranking: RankingResult
    efficiency: Optional[EfficiencyReport] = None


def crossem_config(prompt: str, dataset: CrossModalDataset,
                   seed: int = 0) -> CrossEMConfig:
    aggregator = "sage" if "fb" in dataset.name else "gnn"
    return CrossEMConfig(prompt=prompt, epochs=TUNE_EPOCHS, lr=TUNE_LR,
                         aggregator=aggregator, seed=seed)


def crossem_plus_config(dataset: CrossModalDataset, seed: int = 0,
                        **overrides) -> CrossEMPlusConfig:
    aggregator = "sage" if "fb" in dataset.name else "gnn"
    return CrossEMPlusConfig(prompt="soft", epochs=TUNE_EPOCHS, lr=TUNE_LR,
                             aggregator=aggregator, seed=seed, **overrides)


def run_crossem(bundle: PretrainedBundle, dataset: CrossModalDataset,
                split: VertexSplit, prompt: str,
                seed: int = 0) -> MethodResult:
    matcher = CrossEM(bundle, crossem_config(prompt, dataset, seed))
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    label = {"baseline": "CLIP (naive prompt)", "hard": "CrossEM w/ f_h",
             "soft": "CrossEM w/ f_s"}[prompt]
    trained = matcher.efficiency.seconds_per_epoch > 0  # hard: epochs = 0
    return MethodResult(label, matcher.evaluate(dataset, list(split.test)),
                        matcher.efficiency if trained else None)


def run_crossem_plus(bundle: PretrainedBundle, dataset: CrossModalDataset,
                     split: VertexSplit, seed: int = 0,
                     label: str = "CrossEM+", **overrides) -> MethodResult:
    matcher = CrossEMPlus(bundle,
                          crossem_plus_config(dataset, seed, **overrides))
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    return MethodResult(label, matcher.evaluate(dataset, list(split.test)),
                        matcher.efficiency)


def run_baseline(matcher, dataset: CrossModalDataset,
                 split: VertexSplit) -> MethodResult:
    matcher.fit(dataset, split)
    return MethodResult(matcher.name,
                        matcher.evaluate(dataset, list(split.test)))


def standard_method_suite(bundle: PretrainedBundle,
                          dataset: CrossModalDataset,
                          split: VertexSplit,
                          include_align: bool = True) -> List[MethodResult]:
    """The Table II method roster, fitted and evaluated on ``dataset``."""
    results: List[MethodResult] = []
    if include_align:
        results.append(run_baseline(ALIGNZeroShot(bundle), dataset, split))
    results.append(run_baseline(CLIPZeroShot(bundle), dataset, split))
    for cls in (VisualBERTMatcher, ViLBERTMatcher, TransAEMatcher,
                IMRAMMatcher):
        results.append(run_baseline(cls(bundle, seed=0), dataset, split))
    results.append(run_baseline(GPPTMatcher(bundle, seed=0), dataset, split))
    results.append(run_crossem(bundle, dataset, split, "hard"))
    results.append(run_crossem(bundle, dataset, split, "soft"))
    results.append(run_crossem_plus(bundle, dataset, split))
    return results


def print_table(title: str, results: Sequence[MethodResult],
                paper: Optional[Dict[str, str]] = None,
                efficiency: bool = False) -> None:
    """Render one results table to stdout (captured in bench logs)."""
    print(f"\n=== {title} ===")
    header = f"{'method':24s} {'H@1':>6s} {'H@3':>6s} {'H@5':>6s} {'MRR':>6s}"
    if efficiency:
        header += (f" {'T(s/ep)':>8s} {'Mem(MB)':>8s} {'pairs/ep':>9s} "
                   f"{'label/ep':>9s} {'steps/ep':>8s}")
    if paper is not None:
        header += "   paper(H@1/MRR)"
    print(header)
    for row in results:
        r = row.ranking
        line = (f"{row.method:24s} {r.hits1:6.2f} {r.hits3:6.2f} "
                f"{r.hits5:6.2f} {r.mrr:6.3f}")
        if efficiency:
            e = row.efficiency
            cells = ("-",) * 5 if e is None else (
                f"{e.seconds_per_epoch:.2f}", f"{e.peak_memory_mb:.1f}",
                f"{e.pairs_per_epoch:.0f}", f"{e.label_pairs_per_epoch:.0f}",
                f"{e.steps_per_epoch:.1f}")
            line += (f" {cells[0]:>8s} {cells[1]:>8s} {cells[2]:>9s} "
                     f"{cells[3]:>9s} {cells[4]:>8s}")
        if paper is not None:
            line += f"   {paper.get(row.method, '-')}"
        print(line)
    print_span_profile(f"{title} — span profile")


def print_span_profile(title: str = "span profile") -> None:
    """Emit the run-so-far hierarchical span profile (skipped when no
    spans were recorded, e.g. under ``REPRO_TELEMETRY=0``)."""
    report = format_profile()
    if report:
        print(f"\n--- {title} ---")
        print(report)


def by_method(results: Sequence[MethodResult]) -> Dict[str, MethodResult]:
    return {r.method: r for r in results}
