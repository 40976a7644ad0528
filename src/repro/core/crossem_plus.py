"""CrossEM+ — the improved matching framework (§IV).

CrossEM plus three optimizations, each individually switchable for the
Table IV ablation:

* **MBG** — PCP mini-batch generation (Alg. 2) replaces the full
  |V| x |I| cross product with proximity-clustered partitions, cutting
  both trained pairs (time) and live activations (memory).
* **NS** — property-based negative sampling (Alg. 3) pads partitions
  with hard negatives.
* **OPC** — the orthogonal prompt constraint (Eq. 9), combined with the
  contrastive loss by Eq. 10, applies when the soft prompt is in use.

With MBG disabled the framework falls back to *random* partitions of the
same granularity (the paper's "w/o MBG" variant), so the ablation
isolates the clustering itself rather than the batching machinery.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..clip.zoo import PretrainedBundle
from ..nn.init import rng_from
from ..obs import get_logger, registry, span
from .losses import batch_contrastive_loss, combined_loss, orthogonal_constraint
from .matcher import CrossEM, CrossEMConfig
from .minibatch import (MiniBatchPlan, Partition, PCPConfig,
                        generate_minibatches)
from .negative import NegativeSamplingConfig, augment_plan

__all__ = ["CrossEMPlusConfig", "CrossEMPlus"]

_log = get_logger("repro.core.crossem_plus")


@dataclasses.dataclass
class CrossEMPlusConfig(CrossEMConfig):
    """CrossEM config extended with the §IV optimizations.

    Defaults follow the paper: soft prompt, all three optimizations on,
    loss weight beta = 0.8.
    """

    prompt: str = "soft"
    use_mbg: bool = True
    use_ns: bool = True
    use_opc: bool = True
    beta: float = 0.8
    #: weight of PCP proximity when mining pseudo-labels (0 disables)
    proximity_label_weight: float = 0.3
    pcp: PCPConfig = dataclasses.field(default_factory=PCPConfig)
    negative: NegativeSamplingConfig = dataclasses.field(
        default_factory=NegativeSamplingConfig)


class CrossEMPlus(CrossEM):
    """CrossEM with mini-batch generation, negative sampling and the
    orthogonal prompt constraint."""

    # The partition plan is rebuilt deterministically from the seed in
    # _before_training, so checkpoints carry no plan state — but a plus
    # checkpoint must never restore into a base matcher (and vice
    # versa): their epoch batch streams differ for the same RNG state.
    _checkpoint_kind = "plus"

    def __init__(self, bundle: PretrainedBundle,
                 config: Optional[CrossEMPlusConfig] = None) -> None:
        super().__init__(bundle, config or CrossEMPlusConfig())
        self.plan: Optional[MiniBatchPlan] = None

    # -- partition construction ------------------------------------------------
    def _random_plan(self, rng: np.random.Generator) -> MiniBatchPlan:
        """The "w/o MBG" fallback: partitions with PCP's granularity but
        random membership.  Proximity is still computed when NS is on
        (NS needs it); otherwise a zero matrix placeholder is used."""
        config: CrossEMPlusConfig = self.config
        if config.use_ns:
            plan = generate_minibatches(self.graph, self.vertex_ids, self.images,
                                        self.bundle.minilm, self.bundle.aligner,
                                        config.pcp)
            proximity = plan.proximity
        else:
            proximity = np.zeros((len(self.vertex_ids), len(self.images)),
                                 dtype=np.float32)
        vertex_order = rng.permutation(len(self.vertex_ids))
        image_order = rng.permutation(len(self.images))
        subsets = np.array_split(vertex_order,
                                 min(config.pcp.num_vertex_subsets,
                                     len(self.vertex_ids)))
        # Match PCP's pruning+clustering granularity: each vertex subset
        # sees the same *number* of image groups, drawn at random.
        kept_fraction = 1.0 - config.pcp.prune_quantile
        partitions: List[Partition] = []
        for subset in subsets:
            if not len(subset):
                continue
            vertices = [self.vertex_ids[i] for i in subset]
            n_kept = max(2, int(len(self.images) * kept_fraction))
            kept = rng.choice(image_order, size=n_kept, replace=False)
            clusters = np.array_split(rng.permutation(kept),
                                      config.pcp.num_image_clusters)
            for cluster in clusters:
                if len(cluster) >= 2:
                    partitions.append(Partition(list(vertices),
                                                [int(i) for i in cluster]))
        rng.shuffle(partitions)
        return MiniBatchPlan(partitions, proximity, list(self.vertex_ids))

    def _build_plan(self, rng: np.random.Generator) -> MiniBatchPlan:
        config: CrossEMPlusConfig = self.config
        if config.use_mbg:
            plan = generate_minibatches(self.graph, self.vertex_ids, self.images,
                                        self.bundle.minilm, self.bundle.aligner,
                                        config.pcp)
        else:
            plan = self._random_plan(rng)
        if config.use_ns:
            plan = augment_plan(plan, config.negative)
        return plan

    # -- training hooks ------------------------------------------------------
    def _ensure_plan(self) -> MiniBatchPlan:
        if self.plan is None:
            self.plan = self._build_plan(rng_from(self.config.seed + 1))
        return self.plan

    def _before_training(self) -> None:
        """PCP mini-batch generation is data preprocessing (§IV-A): run
        it before the timed epochs, invalidating any plan from a
        previous fit."""
        self.plan = None
        with span("fit/plan"):
            plan = self._ensure_plan()
        full_pairs = len(self.vertex_ids) * len(self.images)
        reg = registry()
        reg.gauge("plan.partitions").set(len(plan.partitions))
        reg.gauge("plan.pairs").set(plan.total_pairs)
        reg.gauge("plan.pair_coverage").set(
            plan.total_pairs / full_pairs if full_pairs else 0.0)
        _log.info("mini-batch plan built", partitions=len(plan.partitions),
                  pairs=plan.total_pairs, full_pairs=full_pairs)

    def _refresh_pseudo_labels(self) -> int:
        self._ensure_plan()  # labeling mixes in the plan's proximity
        return super()._refresh_pseudo_labels()

    def _iter_epoch(self, rng: np.random.Generator):
        """Batches come from the (cached) partition plan: each partition
        is tiled into N1 x N2 chunks, covering only partition-local pairs."""
        self._ensure_plan()
        config: CrossEMPlusConfig = self.config
        batches: List[Tuple[List[int], List[int]]] = []
        for partition in self.plan.partitions:
            vertices = list(partition.vertex_ids)
            images = list(partition.image_indices)
            rng.shuffle(vertices)
            rng.shuffle(images)
            for vs in range(0, len(vertices), config.vertices_per_batch):
                vertex_chunk = vertices[vs:vs + config.vertices_per_batch]
                if len(vertex_chunk) < 2:
                    continue
                for is_ in range(0, len(images), config.images_per_batch):
                    image_chunk = images[is_:is_ + config.images_per_batch]
                    if len(image_chunk) >= 2:
                        batches.append((vertex_chunk, image_chunk))
        rng.shuffle(batches)
        return batches

    def _label_scores(self) -> np.ndarray:
        """Partition-local labeling evidence with a PCP proximity prior.

        Two differences from CrossEM's full cross product:

        * scores are computed only for (vertex, image) pairs that share
          a partition — pruned candidates never materialize, which is
          where CrossEM+'s memory saving comes from ("unrelated entities
          can be pruned during training", §II-C);
        * Eq. 8 property proximity (an independent evidence source) is
          z-mixed into the scores, sharpening the mutual-top-1
          pseudo-labels — the accuracy edge of CrossEM+.
        """
        plan = self._ensure_plan()
        config: CrossEMPlusConfig = self.config
        with nn.no_grad():
            text = self._encode_all_vertices()
        scores = np.full((len(self.vertex_ids), len(self.images)), -np.inf,
                         dtype=np.float32)
        row_of = {v: i for i, v in enumerate(self.vertex_ids)}
        for partition in plan.partitions:
            rows = np.asarray([row_of[v] for v in partition.vertex_ids])
            columns = np.asarray(partition.image_indices)
            with nn.no_grad():
                block = (nn.Tensor(text[rows])
                         @ self._encode_images(columns).transpose()).numpy()
            scores[np.ix_(rows, columns)] = np.maximum(
                scores[np.ix_(rows, columns)], block)
        covered = np.isfinite(scores)
        if config.proximity_label_weight > 0:
            proximity = plan.proximity

            def zscore(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
                values = matrix[mask]
                std = values.std()
                out = (matrix - values.mean()) / (std if std > 0 else 1.0)
                return out

            mixed = (zscore(np.where(covered, scores, 0.0), covered)
                     + config.proximity_label_weight
                     * zscore(proximity, np.ones_like(covered)))
            scores = np.where(covered, mixed, -np.inf)
        return scores

    def _batch_loss(self, text_embeds: nn.Tensor, image_embeds: nn.Tensor,
                    vertex_chunk: List[int],
                    positives: np.ndarray) -> Optional[nn.Tensor]:
        config: CrossEMPlusConfig = self.config
        contrastive = batch_contrastive_loss(text_embeds, image_embeds,
                                             config.temperature, positives)
        if contrastive is None:
            return None
        if not (config.use_opc and self.soft_prompts is not None):
            return contrastive
        prompts = self.soft_prompts.prompt_matrix(vertex_chunk)
        return combined_loss(contrastive, orthogonal_constraint(prompts),
                             config.beta)

    @property
    def trained_pairs(self) -> int:
        """Candidate pairs actually visited per epoch (vs |V| x |I|)."""
        if self.plan is None:
            return 0
        return self.plan.total_pairs
