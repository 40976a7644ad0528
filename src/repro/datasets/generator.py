"""Benchmark construction: concepts → (graph, image repository, truth).

Builds cross-modal EM datasets with the same *shape* as the paper's
benchmarks (Table I): a heterogeneous graph whose entity vertices must
be matched against an image repository, with ground-truth matching
pairs for evaluation.

Two graph styles mirror the two benchmark families:

* ``"attribute"`` (CUB / SUN): entities come from a relational table of
  visual + symbolic attributes, run through the data-lake mapping, so
  each entity vertex is surrounded by shared attribute-value vertices —
  Fig. 1(a)/(b) of the paper.
* ``"relational"`` (FB15K-IMG): entities come from a JSON document whose
  references form a homophilous knowledge graph (edges preferentially
  connect visually similar concepts), so neighborhood structure carries
  appearance signal the way Freebase context does.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..datalake.graph import Graph
from ..datalake.json_doc import JsonDocument, JsonObject
from ..datalake.mapping import json_to_graph, table_to_graph
from ..datalake.table import RelationalTable, TableSchema
from ..nn.init import SeedLike, rng_from
from ..vision.image import SyntheticImage, render_repository
from .world import SYMBOLIC_FAMILIES, Concept, ConceptUniverse

__all__ = ["CrossModalDataset", "build_attribute_dataset",
           "build_relational_dataset"]

RELATION_NAMES = ("related to", "found with", "derived from", "located near")


@dataclasses.dataclass
class CrossModalDataset:
    """A cross-modal entity matching benchmark instance."""

    name: str
    graph: Graph
    images: List[SyntheticImage]
    #: entity vertex ids, in concept order
    entity_vertices: List[int]
    #: ground truth: entity vertex id -> concept index
    vertex_concept: Dict[int, int]
    universe: ConceptUniverse

    # -- ground truth helpers ------------------------------------------------
    def true_pairs(self) -> Set[Tuple[int, int]]:
        """The gold matching set S: (vertex id, image id) pairs that
        refer to the same concept (Definition 2)."""
        by_concept: Dict[int, List[int]] = {}
        for image in self.images:
            by_concept.setdefault(image.concept_index, []).append(image.image_id)
        pairs: Set[Tuple[int, int]] = set()
        for vertex, concept in self.vertex_concept.items():
            for image_id in by_concept.get(concept, ()):
                pairs.add((vertex, image_id))
        return pairs

    def images_of_vertex(self, vertex_id: int) -> List[int]:
        """Positions (indices into ``self.images``) of gold images."""
        concept = self.vertex_concept[vertex_id]
        return [i for i, img in enumerate(self.images)
                if img.concept_index == concept]

    def images_of_vertices(self,
                           vertex_ids: Sequence[int]) -> List[List[int]]:
        """:meth:`images_of_vertex` for many vertices in one pass over
        the repository: positions grouped by concept, then looked up
        per vertex (vertices of one concept share their list)."""
        by_concept: Dict[int, List[int]] = {}
        for position, image in enumerate(self.images):
            by_concept.setdefault(image.concept_index, []).append(position)
        return [by_concept.get(self.vertex_concept[v], [])
                for v in vertex_ids]

    @property
    def num_candidate_pairs(self) -> int:
        """|V| x |I| — the quantity Fig. 8's x-axis scales."""
        return len(self.entity_vertices) * len(self.images)

    def statistics(self) -> Dict[str, int]:
        """Table-I style dataset statistics."""
        return {
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "entities": len(self.entity_vertices),
            "images": len(self.images),
            "candidate_pairs": self.num_candidate_pairs,
        }


def _concepts(universe: ConceptUniverse,
              indices: Optional[Sequence[int]]) -> List[Concept]:
    if indices is None:
        return list(universe)
    return [universe[i] for i in indices]


def build_attribute_dataset(universe: ConceptUniverse, name: str = "cub-mini",
                            concept_indices: Optional[Sequence[int]] = None,
                            images_per_concept: int = 4,
                            seed: SeedLike = 0) -> CrossModalDataset:
    """CUB/SUN-style benchmark: attribute table → data mapping → graph.

    The relational table has one row per concept with its part-color
    values and symbolic attributes; :func:`table_to_graph` turns rows
    into entity vertices and shared attribute-value vertices.
    """
    concepts = _concepts(universe, concept_indices)
    schema_obj = universe.schema
    part_columns = tuple(f"{p} color" for p in schema_obj.part_names)
    columns = ("name",) + part_columns + tuple(SYMBOLIC_FAMILIES)
    table = RelationalTable(TableSchema(name=name, columns=columns, key="name"))
    for concept in concepts:
        values = {"name": concept.name}
        for part, color in concept.visual_items():
            values[f"{schema_obj.part_names[part]} color"] = \
                schema_obj.color_names[color]
        values.update(concept.symbolic)
        table.insert_dict(values)
    graph, row_vertices = table_to_graph(table)
    entity_vertices = [row_vertices[i] for i in range(len(concepts))]
    vertex_concept = {row_vertices[i]: concepts[i].index
                      for i in range(len(concepts))}
    images = render_repository(concepts, images_per_concept, seed=seed)
    return CrossModalDataset(name, graph, images, entity_vertices,
                             vertex_concept, universe)


def _shared_attributes(a: Concept, b: Concept) -> int:
    return len(set(a.visual.items()) & set(b.visual.items()))


def build_relational_dataset(universe: ConceptUniverse, name: str = "fb-mini",
                             concept_indices: Optional[Sequence[int]] = None,
                             images_per_concept: int = 5,
                             mean_degree: float = 3.0,
                             homophily: float = 5.0,
                             seed: SeedLike = 0) -> CrossModalDataset:
    """FB-IMG-style benchmark: JSON objects with homophilous references.

    Each concept becomes a JSON object carrying one symbolic field and
    references to other concepts; reference probability grows with the
    number of shared visual attributes (``homophily`` scales how much),
    so graph neighborhoods predict appearance like Freebase context does.
    """
    concepts = _concepts(universe, concept_indices)
    rng = rng_from(seed)
    n = len(concepts)
    # Edge sampling: weight (1 + homophily * shared visual attrs).
    weights = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            w = 1.0 + homophily * _shared_attributes(concepts[i], concepts[j])
            weights[i, j] = weights[j, i] = w
    np.fill_diagonal(weights, 0.0)
    objects: List[JsonObject] = []
    for i, concept in enumerate(concepts):
        degree = max(1, int(rng.poisson(mean_degree)))
        probs = weights[i] / weights[i].sum()
        targets = rng.choice(n, size=min(degree, n - 1), replace=False, p=probs)
        references = {f"{rng.choice(RELATION_NAMES)} {k}": concepts[int(t)].name
                      for k, t in enumerate(targets)}
        family = str(rng.choice(list(SYMBOLIC_FAMILIES)))
        fields = {family: concept.symbolic[family]}
        objects.append(JsonObject(concept.name, fields, references))
    graph, key_vertices = json_to_graph(JsonDocument(objects))
    entity_vertices = [key_vertices[c.name] for c in concepts]
    vertex_concept = {key_vertices[c.name]: c.index for c in concepts}
    images = render_repository(concepts, images_per_concept, seed=seed)
    return CrossModalDataset(name, graph, images, entity_vertices,
                             vertex_concept, universe)
