"""PCP — property-based closeness partition for mini-batch generation
(§IV-A, Algorithm 2).

Splits the huge |V| x |I| candidate cross product into partitions where
vertices co-occur with the images they plausibly match, so that
(i) training touches far fewer pairs and (ii) in-batch self-labeling
finds true positives more often.  Three phases, exactly as the paper:

1. *Property closeness calculation* — vertex label features (MiniLM, the
   BERT stand-in) against image patch features (frozen extractor mapped
   into text space by the :class:`~repro.clip.alignment.PropertyAligner`,
   the ResNet stand-in) give the closeness matrix S_c.
2. *Pairwise proximity exploration* — Eq. 8: S(v, I) sums, over v's
   d-hop neighbors plus itself, the best patch closeness.
3. *Cluster-based data partition* — random vertex subsets, proximity
   pruning of irrelevant images, k-means over per-image proximity
   distributions, shuffled into partitions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clip.alignment import PropertyAligner
from ..datalake.graph import Graph
from ..nn.init import SeedLike, rng_from
from ..obs import get_logger, registry, span
from ..text.minilm import MiniLM
from ..vision.image import SyntheticImage

__all__ = ["PCPConfig", "Partition", "MiniBatchPlan", "property_closeness",
           "pairwise_proximity", "generate_minibatches", "kmeans"]

_log = get_logger("repro.core.minibatch")


@dataclasses.dataclass
class PCPConfig:
    """Knobs of Algorithm 2."""

    d: int = 1
    #: number of random vertex subsets (k1)
    num_vertex_subsets: int = 4
    #: k-means cluster count over images per subset (k2)
    num_image_clusters: int = 4
    #: images whose proximity falls below this quantile of the subset's
    #: proximity values are pruned (the paper's absolute theta, made
    #: scale-free)
    prune_quantile: float = 0.4
    seed: int = 0


@dataclasses.dataclass
class Partition:
    """One mini-batch partition D_i = (V_i, I_i)."""

    vertex_ids: List[int]
    image_indices: List[int]

    @property
    def num_pairs(self) -> int:
        return len(self.vertex_ids) * len(self.image_indices)


@dataclasses.dataclass
class MiniBatchPlan:
    """PCP output: partitions plus the proximity matrix reused by
    property-based negative sampling (Algorithm 3)."""

    partitions: List[Partition]
    #: S(v, I): rows follow ``vertex_ids``, columns image indices
    proximity: np.ndarray
    vertex_ids: List[int]

    @property
    def total_pairs(self) -> int:
        return sum(p.num_pairs for p in self.partitions)

    def __post_init__(self) -> None:
        # vertex_row is called inside the negative-sampling loops, so an
        # O(|V|) list.index per call turned Algorithm 3 quadratic.
        self._row_of = {v: i for i, v in enumerate(self.vertex_ids)}

    def vertex_row(self, vertex_id: int) -> int:
        return self._row_of[vertex_id]


def _property_texts(graph: Graph, vertex_id: int, d: int) -> List[str]:
    """Textual properties of a vertex: its label plus one phrase per
    incident edge of its d-hop subgraph ("has wing color in grey" →
    "wing color grey"), mirroring how patch features were aligned to
    attribute phrases."""
    texts = [graph.label(vertex_id)]
    subgraph = graph.d_hop_subgraph(vertex_id, d)
    for edge in subgraph.edges():
        label = edge.label
        for stop_word in ("has ", "ref "):
            if label.startswith(stop_word):
                label = label[len(stop_word):]
        texts.append(f"{label} {subgraph.label(edge.target)}".strip())
    return texts


def property_closeness(graph: Graph, vertex_ids: Sequence[int],
                       images: Sequence[SyntheticImage], minilm: MiniLM,
                       aligner: PropertyAligner, d: int = 1
                       ) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
    """Phase 1: property features per vertex and patch features per
    image, both L2-normalized in MiniLM space.

    Returns ``(property_features, patch_features)`` where
    ``property_features[vid]`` stacks that vertex's property phrase
    embeddings (one per d-hop edge, plus the label itself) and
    ``patch_features`` has shape ``(num_images, num_patches, dim)``.
    """
    # One embed_texts call over every vertex's property phrases: each
    # row only depends on its own text, so slicing the batch back apart
    # reproduces the per-vertex calls exactly.
    texts_per_vertex = [_property_texts(graph, vid, d) for vid in vertex_ids]
    bounds = np.cumsum([0] + [len(t) for t in texts_per_vertex])
    all_embeds = minilm.embed_texts([t for texts in texts_per_vertex
                                     for t in texts])
    properties: Dict[int, np.ndarray] = {}
    for row, vid in enumerate(vertex_ids):
        matrix = all_embeds[bounds[row]:bounds[row + 1]]
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        properties[vid] = (matrix / np.maximum(norms, 1e-8)).astype(np.float32)
    # Patch features run batched (and optionally thread-pooled) through
    # the same chunked path the matcher's image tower uses.
    patches = aligner.patch_text_space_batch(list(images))
    norms = np.linalg.norm(patches, axis=-1, keepdims=True)
    patches = (patches / np.maximum(norms, 1e-8)).astype(np.float32)
    return properties, patches


def pairwise_proximity(graph: Graph, vertex_ids: Sequence[int],
                       properties: Dict[int, np.ndarray],
                       patch_features: np.ndarray, d: int = 1) -> np.ndarray:
    """Phase 2 (Eq. 8): ``S(v, I) = sum_{v_j in N(v)} max_k S_c[v_j, c_k]``
    with ``N(v) = {v} ∪ V_d``, averaged over properties so vertices with
    different neighborhood sizes are comparable.
    Returns ``(len(vertex_ids), num_images)``.

    Vectorized: every vertex's property matrix is stacked into one
    ``(total_properties, dim)`` operand so the closeness computation is
    a single GEMM followed by one max-reduction; only the cheap
    per-vertex mean remains a loop.  The GEMM runs against *patch-major*
    columns so the per-image max reduces over axis 1 with a contiguous
    vectorized inner loop instead of a stride-``num_patches`` gather —
    the dominant cost of the naive layout.  BLAS GEMM results are
    row-sliceable and column-permutation-stable (each element's
    K-accumulation is independent of column order), and max is exactly
    commutative, so the matrix is bit-identical to the per-vertex loop
    kept as ``tests/oracles/proximity.py``.
    """
    num_images = patch_features.shape[0]
    proximity = np.zeros((len(vertex_ids), num_images), dtype=np.float32)
    if not len(vertex_ids):
        return proximity
    patch_major = np.ascontiguousarray(
        patch_features.transpose(1, 0, 2).reshape(
            -1, patch_features.shape[-1]))
    matrices = [properties[vid] for vid in vertex_ids]
    bounds = np.cumsum([0] + [len(m) for m in matrices])
    stacked = np.concatenate(matrices, axis=0)
    closeness = stacked @ patch_major.T  # (total_properties, patches * |I|)
    best = closeness.reshape(len(stacked), -1, num_images).max(axis=1)
    flat_patches = None
    for row, matrix in enumerate(matrices):
        if len(matrix) == 1:
            # BLAS routes single-row operands through gemv, which rounds
            # differently from the stacked gemm; redo these rows with
            # the reference's kernel so equality stays exact.
            if flat_patches is None:
                flat_patches = patch_features.reshape(
                    -1, patch_features.shape[-1])
            single = (matrix @ flat_patches.T).reshape(1, num_images, -1)
            proximity[row] = single.max(axis=2).mean(axis=0)
        else:
            proximity[row] = best[bounds[row]:bounds[row + 1]].mean(axis=0)
    return proximity


#: float64 elements per distance block (512 KiB: it stays in cache)
BLOCK_SIZE = 65536


def kmeans(points: np.ndarray, k: int, rng: SeedLike = None,
           iterations: int = 25) -> np.ndarray:
    """Seeded Lloyd's k-means; returns integer labels per point.

    Small and deterministic on purpose — scipy's kmeans2 seeds globally.
    Empty clusters are re-seeded from the farthest point (clusters that
    empty together share it).  Labels equal the per-cluster loop's, with
    a blocked distance pass and a one-pass centre update (DESIGN.md §12).
    """
    rng = rng_from(rng)
    n = len(points)
    k = min(k, n)
    if k <= 1:
        return np.zeros(n, dtype=np.int64)
    points = np.asarray(points)
    dim = points.shape[1]
    pts = points.astype(np.float64)
    centers = points[rng.choice(n, size=k, replace=False)].astype(np.float64)
    point_norms = (pts ** 2).sum(axis=1)
    # ufunc.at adds in index order, as ``mean`` does for dim > 1, at dim
    # adds a point where the loop pays k mask passes
    summable = 1 < dim < k and points.dtype in (np.float32, np.float64)
    labels = np.zeros(n, dtype=np.int64)
    step = max(1, BLOCK_SIZE // k)
    dots, block = np.empty((n, k)), np.empty((min(n, step), k))
    iterations_run = 0
    for _ in range(iterations):
        iterations_run += 1
        center_norms = (centers ** 2).sum(axis=1)
        np.matmul(pts, centers.T, out=dots)
        new_labels = np.empty(n, dtype=np.int64)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            twice, distances = dots[rows], block[:len(dots[rows])]
            twice *= 2.0  # (‖x‖² + ‖c‖²) − 2·x·c as before, in place
            distances[:] = center_norms  # addition commutes exactly
            distances += point_norms[rows, None]
            distances -= twice
            new_labels[rows] = distances.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if summable and counts.all():
            sums = np.zeros(k * dim, dtype=points.dtype)
            np.add.at(sums, (new_labels[:, None] * dim
                             + np.arange(dim)).ravel(), points.ravel())
            centers[:] = (sums.reshape(k, dim)
                          / counts[:, None]).astype(points.dtype)
        else:  # the loop; its reseed rule moves labels mid-loop
            for cluster in range(k):
                members = points[new_labels == cluster]
                if len(members):
                    centers[cluster] = members.mean(axis=0)
                else:  # dots holds 2·x·c now
                    farthest = (point_norms[:, None] + center_norms
                                - dots).min(axis=1).argmax()
                    centers[cluster] = points[farthest]
                    new_labels[farthest] = cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    registry().counter("pcp.kmeans_iterations").inc(iterations_run)
    return labels


def generate_minibatches(graph: Graph, vertex_ids: Sequence[int],
                         images: Sequence[SyntheticImage], minilm: MiniLM,
                         aligner: PropertyAligner,
                         config: Optional[PCPConfig] = None) -> MiniBatchPlan:
    """Run all three PCP phases (Algorithm 2)."""
    config = config or PCPConfig()
    rng = rng_from(config.seed)
    vertex_ids = list(vertex_ids)
    reg = registry()
    with span("pcp/closeness"):
        properties, patches = property_closeness(graph, vertex_ids, images,
                                                 minilm, aligner, config.d)
    with span("pcp/proximity"):
        proximity = pairwise_proximity(graph, vertex_ids, properties, patches,
                                       config.d)
    # Phase 3: random vertex split -> prune -> cluster -> shuffle.
    with span("pcp/partition"):
        order = rng.permutation(len(vertex_ids))
        subsets = np.array_split(order, min(config.num_vertex_subsets,
                                            len(vertex_ids)))
        partitions: List[Partition] = []
        for subset in subsets:
            if not len(subset):
                continue
            subset_vertices = [vertex_ids[i] for i in subset]
            subset_prox = proximity[subset]  # (|V_i|, |I|)
            relevance = subset_prox.max(axis=0)
            theta = np.quantile(relevance, config.prune_quantile)
            kept = np.flatnonzero(relevance > theta)
            if not len(kept):
                kept = np.arange(len(images))
            reg.counter("pcp.pruned_images").inc(len(images) - len(kept))
            # P_i(I): per-image distribution of proximity over the subset.
            columns = subset_prox[:, kept].T  # (|kept|, |V_i|)
            sums = columns.sum(axis=1, keepdims=True)
            distributions = columns / np.maximum(sums, 1e-8)
            labels = kmeans(distributions, config.num_image_clusters, rng)
            cluster_ids = list(np.unique(labels))
            rng.shuffle(cluster_ids)
            for cluster in cluster_ids:
                members = [int(kept[i])
                           for i in np.flatnonzero(labels == cluster)]
                rng.shuffle(members)
                if len(members) >= 2:
                    partitions.append(Partition(list(subset_vertices), members))
        rng.shuffle(partitions)
    for partition in partitions:
        reg.histogram("pcp.partition_vertices").observe(len(partition.vertex_ids))
        reg.histogram("pcp.partition_images").observe(len(partition.image_indices))
    _log.debug("pcp plan generated", vertices=len(vertex_ids),
               images=len(images), partitions=len(partitions))
    return MiniBatchPlan(partitions, proximity, vertex_ids)
