"""Shared infrastructure for competitor baselines.

Every baseline exposes the same minimal protocol so the benchmark
harness can treat them uniformly:

* ``fit(dataset, split)`` — prepare/pre-train (no-op for zero-shot
  dual encoders; supervised methods may use the train side of the
  split).
* ``score(vertex_ids)`` — similarity matrix against all dataset images.
* ``evaluate(dataset, vertex_ids)`` — H@k / MRR via the shared metrics.

Baselines operate on the same pre-trained bundle as CrossEM for a fair
comparison, exactly as the paper evaluates released checkpoints of each
competitor on the same benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..clip.zoo import PretrainedBundle
from ..core.metrics import RankingResult, evaluate_ranking
from ..datasets.generator import CrossModalDataset

__all__ = ["BaselineMatcher", "caption_pairs_for_training"]


class BaselineMatcher:
    """Base class implementing the evaluation plumbing."""

    name = "baseline"

    def __init__(self, bundle: PretrainedBundle) -> None:
        self.bundle = bundle
        self.dataset: Optional[CrossModalDataset] = None

    # -- protocol ------------------------------------------------------------
    def fit(self, dataset: CrossModalDataset, split=None) -> "BaselineMatcher":
        """Default: remember the dataset; subclasses add training."""
        self.dataset = dataset
        return self

    def score(self, vertex_ids: Sequence[int]) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, dataset: CrossModalDataset,
                 vertex_ids: Optional[Sequence[int]] = None) -> RankingResult:
        vertex_ids = list(vertex_ids if vertex_ids is not None
                          else dataset.entity_vertices)
        scores = self.score(vertex_ids)
        gold = dataset.images_of_vertices(vertex_ids)
        return evaluate_ranking(scores, gold)

    # -- shared helpers ---------------------------------------------------------
    def _require_fitted(self) -> CrossModalDataset:
        if self.dataset is None:
            raise RuntimeError(f"{type(self).__name__}.fit must be called first")
        return self.dataset

    def _image_pixels(self) -> np.ndarray:
        dataset = self._require_fitted()
        return np.stack([img.pixels for img in dataset.images])

    def _encode_images_clip(self) -> np.ndarray:
        """Frozen MiniCLIP image embeddings of all dataset images."""
        dataset = self._require_fitted()
        chunks = []
        for start in range(0, len(dataset.images), 64):
            pixels = np.stack([img.pixels
                               for img in dataset.images[start:start + 64]])
            with nn.no_grad():
                chunks.append(self.bundle.clip.encode_image(pixels).numpy())
        return np.concatenate(chunks, axis=0)


def caption_pairs_for_training(bundle: PretrainedBundle, seed: int = 0,
                               captions_per_concept: int = 2) -> List[tuple]:
    """(caption, rendered pixels) pairs from the pre-training universe —
    the supervision the fusion baselines pre-train their matching heads
    on (their published checkpoints were likewise trained on generic
    caption data, not the benchmark)."""
    from ..datasets.world import caption_for
    from ..vision.image import render_concept
    from ..nn.init import rng_from

    rng = rng_from(seed)
    pairs = []
    for concept in bundle.universe:
        for _ in range(captions_per_concept):
            caption = caption_for(concept, bundle.universe.schema, rng)
            pairs.append((caption, render_concept(concept, rng)))
    return pairs
