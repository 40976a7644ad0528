"""Benchmark generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generator import (build_attribute_dataset,
                                      build_relational_dataset,
                                      _shared_attributes)
from repro.datasets.splits import train_test_split
from repro.datasets.world import ConceptUniverse


@pytest.fixture(scope="module")
def universe():
    return ConceptUniverse(12, kind="bird", seed=6)


@pytest.fixture(scope="module")
def attribute_ds(universe):
    return build_attribute_dataset(universe, concept_indices=range(8),
                                   images_per_concept=2, seed=6)


@pytest.fixture(scope="module")
def relational_ds(universe):
    return build_relational_dataset(universe, concept_indices=range(8),
                                    images_per_concept=2, seed=6)


class TestAttributeDataset:
    def test_statistics(self, attribute_ds):
        stats = attribute_ds.statistics()
        assert stats["entities"] == 8
        assert stats["images"] == 16
        assert stats["candidate_pairs"] == 128
        assert stats["vertices"] > stats["entities"]  # attribute vertices

    def test_true_pairs_match_provenance(self, attribute_ds):
        pairs = attribute_ds.true_pairs()
        assert len(pairs) == 16  # each image matches exactly one vertex
        for vertex, image_id in pairs:
            concept = attribute_ds.vertex_concept[vertex]
            image = next(i for i in attribute_ds.images
                         if i.image_id == image_id)
            assert image.concept_index == concept

    def test_images_of_vertex(self, attribute_ds):
        v = attribute_ds.entity_vertices[0]
        positions = attribute_ds.images_of_vertex(v)
        assert len(positions) == 2
        concept = attribute_ds.vertex_concept[v]
        for p in positions:
            assert attribute_ds.images[p].concept_index == concept

    def test_images_of_vertices_is_the_per_vertex_scan(self, attribute_ds):
        vertices = list(reversed(attribute_ds.entity_vertices)) \
            + attribute_ds.entity_vertices[:2]
        assert attribute_ds.images_of_vertices(vertices) \
            == [attribute_ds.images_of_vertex(v) for v in vertices]
        # no state kept on the (mutable) dataset: a repository edit shows
        attribute_ds.images.append(attribute_ds.images[0])
        try:
            v = vertices[0]
            assert attribute_ds.images_of_vertices([v]) \
                == [attribute_ds.images_of_vertex(v)]
        finally:
            attribute_ds.images.pop()

    def test_entity_labels_are_names(self, attribute_ds, universe):
        labels = {attribute_ds.graph.label(v)
                  for v in attribute_ds.entity_vertices}
        assert labels == {universe[i].name for i in range(8)}


class TestRelationalDataset:
    def test_reference_edges_exist(self, relational_ds):
        ref_edges = [e for e in relational_ds.graph.edges()
                     if e.label.startswith("ref")]
        assert ref_edges

    def test_homophily_biases_edges(self, universe):
        """Reference edges should connect visually more similar concepts
        than random pairs on average."""
        ds = build_relational_dataset(universe, images_per_concept=1,
                                      homophily=8.0, mean_degree=3, seed=1)
        concept_of = {v: ds.universe[c] for v, c in ds.vertex_concept.items()}
        edge_shared = []
        for e in ds.graph.edges():
            if e.label.startswith("ref") and e.target in concept_of:
                edge_shared.append(_shared_attributes(concept_of[e.source],
                                                      concept_of[e.target]))
        rng = np.random.default_rng(0)
        concepts = list(concept_of.values())
        random_shared = []
        for _ in range(300):
            i, j = rng.choice(len(concepts), size=2, replace=False)
            random_shared.append(_shared_attributes(concepts[int(i)],
                                                    concepts[int(j)]))
        assert np.mean(edge_shared) >= np.mean(random_shared)

    def test_unknown_size_raises(self):
        from repro.datasets.fbimg import load_fbimg
        with pytest.raises(ValueError):
            load_fbimg("fb99k")


class TestSplits:
    def test_disjoint_and_complete(self, attribute_ds):
        split = train_test_split(attribute_ds, 0.5, seed=0)
        assert not set(split.train) & set(split.test)
        assert (set(split.train) | set(split.test)
                == set(attribute_ds.entity_vertices))

    def test_invalid_fraction(self, attribute_ds):
        with pytest.raises(ValueError):
            train_test_split(attribute_ds, 1.5)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 0.9), st.integers(0, 1000))
    def test_property_split_sizes(self, fraction, seed):
        universe = ConceptUniverse(10, seed=1)
        ds = build_attribute_dataset(universe, concept_indices=range(6),
                                     images_per_concept=1, seed=1)
        split = train_test_split(ds, fraction, seed=seed)
        assert len(split.train) >= 1
        assert len(split.test) >= 1
        assert len(split.train) + len(split.test) == 6
