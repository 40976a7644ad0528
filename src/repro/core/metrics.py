"""Evaluation metrics: Hits@k, MRR and efficiency reporting.

The paper evaluates accuracy with Hits@{1,3,5} and Mean Reciprocal
Rank, and efficiency with per-epoch training time (seconds) and peak
GPU memory (GB).  Rankings here are rows of a similarity matrix —
higher is better — and a vertex may have several gold images (the paper
does not assume one-to-one matching), so the rank of a vertex is the
rank of its *best-ranked* gold image.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

import numpy as np

__all__ = ["RankingResult", "evaluate_ranking", "hits_at_k",
           "mean_reciprocal_rank", "EfficiencyReport", "MatchingSetResult",
           "matching_set_metrics"]


def _first_relevant_ranks(scores: np.ndarray,
                          gold: Sequence[Sequence[int]]) -> np.ndarray:
    """Rank (1-based) of the best-ranked gold column per row, in the
    order a stable descending sort gives: ``(-score, column)``.

    The best gold column is the highest-scoring one, the lowest column
    among equals; what ranks ahead of it is every column that beats its
    score plus every earlier column that ties it.  Two O(|I|) counts
    per row give exactly the position a full ``argsort`` would
    (``-inf`` columns included; scores are assumed free of NaN).
    """
    if len(scores) != len(gold):
        raise ValueError("scores and gold must align row-wise")
    ranks = np.zeros(len(scores), dtype=np.int64)
    for i, (row, positives) in enumerate(zip(scores, gold)):
        if not len(positives):
            raise ValueError(f"row {i} has no gold matches")
        positives = np.asarray(positives)
        gold_scores = row[positives]
        best = gold_scores.max()
        first = positives[gold_scores == best].min()
        ranks[i] = 1 + np.count_nonzero(row > best) \
            + np.count_nonzero(row[:first] == best)
    return ranks


def hits_at_k(scores: np.ndarray, gold: Sequence[Sequence[int]], k: int) -> float:
    """Fraction of rows whose best gold column ranks within top ``k``
    (in percent, as the paper reports)."""
    ranks = _first_relevant_ranks(np.asarray(scores), gold)
    return float((ranks <= k).mean() * 100.0)


def mean_reciprocal_rank(scores: np.ndarray,
                         gold: Sequence[Sequence[int]]) -> float:
    """MRR over rows (in [0, 1])."""
    ranks = _first_relevant_ranks(np.asarray(scores), gold)
    return float((1.0 / ranks).mean())


@dataclasses.dataclass(frozen=True)
class RankingResult:
    """Bundle of the paper's accuracy metrics for one method/dataset."""

    hits1: float
    hits3: float
    hits5: float
    mrr: float

    def as_dict(self) -> Dict[str, float]:
        return {"H@1": self.hits1, "H@3": self.hits3, "H@5": self.hits5,
                "MRR": self.mrr}

    def __str__(self) -> str:
        return (f"H@1={self.hits1:5.2f}  H@3={self.hits3:5.2f}  "
                f"H@5={self.hits5:5.2f}  MRR={self.mrr:.3f}")


def evaluate_ranking(scores: np.ndarray,
                     gold: Sequence[Sequence[int]]) -> RankingResult:
    """Compute H@1/3/5 and MRR in one pass."""
    scores = np.asarray(scores)
    ranks = _first_relevant_ranks(scores, gold)
    return RankingResult(
        hits1=float((ranks <= 1).mean() * 100.0),
        hits3=float((ranks <= 3).mean() * 100.0),
        hits5=float((ranks <= 5).mean() * 100.0),
        mrr=float((1.0 / ranks).mean()),
    )


@dataclasses.dataclass(frozen=True)
class MatchingSetResult:
    """Set-level quality of a matching set S against the gold pairs —
    the precision/recall view standard in the EM literature, which
    complements the ranking metrics the paper reports."""

    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)

    def __str__(self) -> str:
        return (f"P={self.precision:.3f}  R={self.recall:.3f}  "
                f"F1={self.f1:.3f}")


def matching_set_metrics(predicted, gold) -> MatchingSetResult:
    """Precision/recall of a predicted pair set against the gold set.

    Both arguments are iterables of hashable pairs.  An empty predicted
    set has precision 1 by convention (no wrong assertions were made).
    """
    predicted = set(predicted)
    gold = set(gold)
    if not gold:
        raise ValueError("gold matching set must not be empty")
    true_positives = len(predicted & gold)
    precision = true_positives / len(predicted) if predicted else 1.0
    recall = true_positives / len(gold)
    return MatchingSetResult(precision=precision, recall=recall)


@dataclasses.dataclass
class EfficiencyReport:
    """Training efficiency record (Table III / Fig. 8 quantities).

    Beside wall seconds, an epoch's cost in counts, which do not depend
    on what the trainer skips: candidate pairs enumerated in batches,
    candidate pairs scored while pseudo-labelling, and productive
    batches (those with non-empty X_p — one optimizer step each).
    """

    seconds_per_epoch: float
    peak_memory_bytes: int
    pairs_per_epoch: float = 0.0
    label_pairs_per_epoch: float = 0.0
    steps_per_epoch: float = 0.0

    @property
    def scored_pairs_per_epoch(self) -> float:
        """Candidate pairs an epoch visits, enumerating plus labelling."""
        return self.pairs_per_epoch + self.label_pairs_per_epoch

    @property
    def peak_memory_gb(self) -> float:
        return self.peak_memory_bytes / (1024.0**3)

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1024.0**2)

    def __str__(self) -> str:
        return (f"T={self.seconds_per_epoch:.2f}s/epoch  "
                f"Mem={self.peak_memory_mb:.1f}MB")
