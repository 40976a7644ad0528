"""CrossEM+ tests (§IV optimizations and ablation switches)."""

import numpy as np
import pytest

from repro.core.crossem_plus import CrossEMPlus, CrossEMPlusConfig
from repro.core.minibatch import PCPConfig


def make_plus(bundle, dataset, **overrides):
    config = CrossEMPlusConfig(epochs=overrides.pop("epochs", 1), lr=1e-3,
                               seed=0, **overrides)
    matcher = CrossEMPlus(bundle, config)
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    return matcher


class TestPlan:
    def test_mbg_plan_built_lazily_once(self, tiny_bundle, tiny_dataset):
        matcher = make_plus(tiny_bundle, tiny_dataset)
        assert matcher.plan is not None
        plan = matcher.plan
        matcher._ensure_plan()
        assert matcher.plan is plan

    def test_trained_pairs_below_cross_product(self, tiny_bundle,
                                               tiny_dataset):
        # Without NS padding, PCP pruning strictly reduces the visited
        # pairs (NS padding can mask the saving at toy scale).
        matcher = make_plus(tiny_bundle, tiny_dataset, use_ns=False)
        assert 0 < matcher.trained_pairs < tiny_dataset.num_candidate_pairs

    def test_without_mbg_uses_random_partitions(self, tiny_bundle,
                                                tiny_dataset):
        with_mbg = make_plus(tiny_bundle, tiny_dataset)
        without = make_plus(tiny_bundle, tiny_dataset, use_mbg=False)
        a = [(tuple(p.vertex_ids), tuple(p.image_indices))
             for p in with_mbg.plan.partitions]
        b = [(tuple(p.vertex_ids), tuple(p.image_indices))
             for p in without.plan.partitions]
        assert a != b

    def test_without_ns_no_padding(self, tiny_bundle, tiny_dataset):
        without = make_plus(tiny_bundle, tiny_dataset, use_ns=False,
                            epochs=0)
        without._ensure_plan()
        # with NS off and MBG on, partitions are PCP's raw clusters
        assert without.plan is not None

    def test_trained_pairs_zero_before_plan(self, tiny_bundle):
        matcher = CrossEMPlus(tiny_bundle, CrossEMPlusConfig(epochs=0))
        assert matcher.trained_pairs == 0


class TestTraining:
    def test_full_configuration_trains(self, tiny_bundle, tiny_dataset):
        matcher = make_plus(tiny_bundle, tiny_dataset, epochs=2)
        assert len(matcher.epoch_losses) == 2
        assert all(np.isfinite(l) for l in matcher.epoch_losses)

    def test_opc_changes_loss(self, tiny_bundle, tiny_dataset):
        with_opc = make_plus(tiny_bundle, tiny_dataset, use_opc=True)
        without = make_plus(tiny_bundle, tiny_dataset, use_opc=False)
        assert with_opc.epoch_losses != without.epoch_losses

    def test_proximity_label_weight_zero_matches_clip_labels(
            self, tiny_bundle, tiny_dataset):
        matcher = make_plus(tiny_bundle, tiny_dataset,
                            proximity_label_weight=0.0, epochs=1)
        assert matcher._pseudo_labels  # self-labeling still happens

    def test_accuracy_at_least_chance(self, tiny_bundle, tiny_dataset):
        matcher = make_plus(tiny_bundle, tiny_dataset, epochs=2)
        result = matcher.evaluate(tiny_dataset)
        chance = 100.0 * 2 / len(tiny_dataset.images)
        assert result.hits1 > chance

    def test_custom_pcp_config_respected(self, tiny_bundle, tiny_dataset):
        pcp = PCPConfig(num_vertex_subsets=1, num_image_clusters=2, seed=0)
        matcher = make_plus(tiny_bundle, tiny_dataset, pcp=pcp, use_ns=False)
        subsets = {tuple(sorted(p.vertex_ids))
                   for p in matcher.plan.partitions}
        assert len(subsets) == 1


def clip_parameters(matcher):
    params = {}
    matcher.clip._collect_params("", params)
    return params


class TestFrozenClip:
    """Prompt tuning trains the prompts only: the matcher's private CLIP
    copy is frozen whole, so backward never accumulates gradients on
    the text tower that no optimizer reads."""

    def test_fit_leaves_no_clip_gradients(self, tiny_bundle, tiny_dataset):
        matcher = make_plus(tiny_bundle, tiny_dataset, epochs=2)
        assert any(np.isfinite(l) and l > 0 for l in matcher.epoch_losses)
        for name, param in clip_parameters(matcher).items():
            assert not param.requires_grad, name
            assert param.grad is None, name
        tuned = {id(p) for p in matcher.soft_prompts.parameters()}
        assert tuned == {id(matcher.soft_prompts.prompt_table),
                         id(matcher.soft_prompts.fusion.weight),
                         id(matcher.soft_prompts.fusion.bias)}

    def test_freeze_does_not_change_what_is_learned(
            self, tiny_bundle, tiny_dataset, monkeypatch):
        frozen = make_plus(tiny_bundle, tiny_dataset, epochs=2)
        # the previous behaviour: image tower frozen, text tower not
        monkeypatch.setattr(type(frozen.clip), "freeze",
                            type(frozen.clip).freeze_image_tower)
        thawed = make_plus(tiny_bundle, tiny_dataset, epochs=2)
        stale = [name for name, param in clip_parameters(thawed).items()
                 if param.grad is not None]
        assert stale and all(name.startswith("text.") for name in stale)
        for name in ("prompt_table", "fusion.weight", "fusion.bias"):
            assert np.array_equal(frozen.soft_prompts.state_dict()[name],
                                  thawed.soft_prompts.state_dict()[name]), name
        assert frozen.epoch_losses == thawed.epoch_losses
        assert np.array_equal(frozen.score(), thawed.score())
