"""``_train_batch`` tests X_p before the encoders run — and nothing a
``fit`` produces can tell.

The oracle is the encode-first ``_train_batch`` it replaced
(``tests/oracles/train_batch_encode_first.py``).  Both take an
optimizer step on exactly the batches whose X_p is non-empty, so every
artefact of a fit — scores, losses, the final checkpoint (tuned
weights, AdamW moments and step count, RNG state, pseudo-labels) and
the registry's batch counters — must be equal bit for bit; what
differs is how often the text tower runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager
from repro.core.crossem_plus import CrossEMPlus, CrossEMPlusConfig
from repro.core.matcher import CrossEM, CrossEMConfig
from repro.datasets.generator import build_attribute_dataset
from repro.obs import registry
from tests.oracles.train_batch_encode_first import train_batch_encode_first

EPOCHS = 2
COUNTERS = ("train.batches", "train.batches_empty", "train.pairs")


@pytest.fixture(scope="module")
def sparse_dataset(tiny_bundle):
    """800 images behind 10 vertices: one pseudo-positive per vertex
    rarely lands in a given 8 x 16 batch, so most batches are empty —
    the regime the skip exists for (``bench_hotpaths.py``'s
    ``train_epoch_plus`` world)."""
    return build_attribute_dataset(tiny_bundle.universe, name="bench-epoch",
                                   concept_indices=range(10),
                                   images_per_concept=80, seed=7)


@pytest.fixture(scope="module", params=["tiny", "relational", "sparse"])
def dataset(request, tiny_dataset, tiny_relational_dataset, sparse_dataset):
    return {"tiny": tiny_dataset, "relational": tiny_relational_dataset,
            "sparse": sparse_dataset}[request.param]


def make_matcher(kind: str, bundle, epochs: int = EPOCHS) -> CrossEM:
    if kind == "plus":
        return CrossEMPlus(bundle, CrossEMPlusConfig(epochs=epochs, lr=1e-3,
                                                     seed=3))
    return CrossEM(bundle, CrossEMConfig(prompt="soft", epochs=epochs,
                                         lr=1e-3, seed=3))


def fit_observed(matcher: CrossEM, dataset, directory, **kwargs) -> dict:
    """Fit and collect everything the two ``_train_batch`` must agree
    on, plus how many ``encode_vertices`` calls the batch loop made."""
    reg = registry()
    before = {name: reg.counter(name).value for name in COUNTERS}
    calls = {"in_loop": 0, "inside": False}
    train_batch, encode = matcher._train_batch, matcher.encode_vertices

    def spied_train_batch(*args):
        calls["inside"] = True
        try:
            return train_batch(*args)
        finally:
            calls["inside"] = False

    def spied_encode(vertex_ids):
        calls["in_loop"] += calls["inside"]
        return encode(vertex_ids)

    matcher._train_batch = spied_train_batch
    matcher.encode_vertices = spied_encode
    try:
        matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices,
                    checkpoint_dir=directory, **kwargs)
    finally:
        del matcher._train_batch, matcher.encode_vertices
    arrays, meta, _ = CheckpointManager(directory).latest()
    return {"scores": matcher.score(), "losses": list(matcher.epoch_losses),
            "arrays": arrays, "meta": meta,
            "counters": {name: reg.counter(name).value - before[name]
                         for name in COUNTERS},
            "share": reg.gauge("train.productive_batch_share").value,
            "encode_calls": calls["in_loop"]}


@pytest.mark.parametrize("kind", ["soft", "plus"])
class TestSkipIsInvisible:
    def test_fit_is_bit_identical_to_encode_first(self, kind, tiny_bundle,
                                                  dataset, tmp_path,
                                                  monkeypatch):
        skipping = fit_observed(make_matcher(kind, tiny_bundle), dataset,
                                tmp_path / "skip")
        monkeypatch.setattr(CrossEM, "_train_batch", train_batch_encode_first)
        oracle = fit_observed(make_matcher(kind, tiny_bundle), dataset,
                              tmp_path / "oracle")

        assert np.array_equal(skipping["scores"], oracle["scores"])
        assert skipping["losses"] == oracle["losses"]
        assert len(skipping["losses"]) == EPOCHS
        # the checkpoint: tuned weights, optimizer moments + step count,
        # RNG state, pseudo-labels
        assert skipping["meta"] == oracle["meta"]
        assert skipping["meta"]["opt_step"] > 0
        assert sorted(skipping["arrays"]) == sorted(oracle["arrays"])
        for key, value in oracle["arrays"].items():
            assert np.array_equal(skipping["arrays"][key], value), key
        assert skipping["counters"] == oracle["counters"]
        assert skipping["share"] == oracle["share"]

        # what did change: the text tower runs for productive batches
        # only, and each of those takes exactly one optimizer step
        counters = skipping["counters"]
        productive = counters["train.batches"] \
            - counters["train.batches_empty"]
        assert skipping["encode_calls"] == productive
        assert skipping["meta"]["opt_step"] == productive
        assert oracle["encode_calls"] == counters["train.batches"]

    def test_kill_and_resume_still_bit_identical(self, kind, tiny_bundle,
                                                 dataset, tmp_path):
        whole = fit_observed(make_matcher(kind, tiny_bundle), dataset,
                             tmp_path / "whole")
        fit_observed(make_matcher(kind, tiny_bundle, epochs=1), dataset,
                     tmp_path / "killed")
        resumed = fit_observed(make_matcher(kind, tiny_bundle), dataset,
                               tmp_path / "killed",
                               resume_from=tmp_path / "killed")
        assert np.array_equal(resumed["scores"], whole["scores"])
        assert resumed["losses"] == whole["losses"]
        assert resumed["meta"] == whole["meta"]
        for key, value in whole["arrays"].items():
            assert np.array_equal(resumed["arrays"][key], value), key


def test_sparse_world_is_mostly_empty_batches(tiny_bundle, sparse_dataset,
                                              tmp_path):
    """The fixture earns its name: without this the skip is untested."""
    seen = fit_observed(make_matcher("plus", tiny_bundle, epochs=1),
                        sparse_dataset, tmp_path)
    counters = seen["counters"]
    assert counters["train.batches_empty"] > 0.8 * counters["train.batches"]
    assert 0 < seen["encode_calls"] < 0.2 * counters["train.batches"]
