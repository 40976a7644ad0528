"""Figure 8 — scalability over FB2K / FB6K / FB10K-IMG.

The paper scales the candidate-pair count (54M → 284M → 755M; here the
miniature series grows 32K → 128K → 288K) and plots MRR, per-epoch
training time and peak memory for CrossEM w/ f_s versus CrossEM+.

Per-epoch cost is reported twice: wall seconds, and the skip-invariant
count (candidate pairs enumerated in batches + pairs scored while
labelling, and productive steps).  The assertions sit on the counts:
the trainer skips empty-X_p batches before any encoder runs, so wall
s/epoch follows the productive steps (a few dozen to a few hundred for
both methods) and is too close and too noisy to order the methods.

Shape assertions (the paper's two findings, on counts):
1. At every scale, CrossEM+ scores fewer candidate pairs per epoch and
   peaks no higher in memory than CrossEM w/ f_s.
2. Cost grows more slowly for CrossEM+ — its pair-count and step-count
   ratios from the smallest to the largest dataset are smaller than
   CrossEM's.
"""

import pytest

from bench_common import crossem_config, crossem_plus_config
from repro.core import CrossEM, CrossEMPlus
from repro.datasets import FB_SIZES, fb_bundle, load_fbimg, train_test_split

SCALE_EPOCHS = 3  # the sweep trains 6 models; keep per-model cost bounded


@pytest.fixture(scope="module")
def sweep():
    bundle = fb_bundle()
    series = []
    for size in FB_SIZES:
        dataset = load_fbimg(size)
        split = train_test_split(dataset, 0.5, seed=0)
        config_s = crossem_config("soft", dataset)
        config_s.epochs = SCALE_EPOCHS
        soft = CrossEM(bundle, config_s)
        soft.fit(dataset.graph, dataset.images, dataset.entity_vertices)
        config_p = crossem_plus_config(dataset)
        config_p.epochs = SCALE_EPOCHS
        plus = CrossEMPlus(bundle, config_p)
        plus.fit(dataset.graph, dataset.images, dataset.entity_vertices)
        series.append({
            "size": size,
            "pairs": dataset.num_candidate_pairs,
            "soft_mrr": soft.evaluate(dataset, split.test).mrr,
            "plus_mrr": plus.evaluate(dataset, split.test).mrr,
            "soft_t": soft.efficiency.seconds_per_epoch,
            "plus_t": plus.efficiency.seconds_per_epoch,
            "soft_mem": soft.efficiency.peak_memory_mb,
            "plus_mem": plus.efficiency.peak_memory_mb,
            "soft_scored": soft.efficiency.scored_pairs_per_epoch,
            "plus_scored": plus.efficiency.scored_pairs_per_epoch,
            "soft_steps": soft.efficiency.steps_per_epoch,
            "plus_steps": plus.efficiency.steps_per_epoch,
        })
    print("\n=== Figure 8 - scalability on FB15K-IMG series ===")
    print(f"{'size':>6s} {'pairs':>8s} | {'MRR soft':>8s} {'MRR plus':>8s} | "
          f"{'T soft':>7s} {'T plus':>7s} | {'scored soft':>11s} "
          f"{'scored plus':>11s} | {'steps soft':>10s} {'steps plus':>10s} | "
          f"{'Mem soft':>8s} {'Mem plus':>8s}")
    for row in series:
        print(f"{row['size']:>6s} {row['pairs']:>8d} | "
              f"{row['soft_mrr']:>8.3f} {row['plus_mrr']:>8.3f} | "
              f"{row['soft_t']:>7.2f} {row['plus_t']:>7.2f} | "
              f"{row['soft_scored']:>11.0f} {row['plus_scored']:>11.0f} | "
              f"{row['soft_steps']:>10.1f} {row['plus_steps']:>10.1f} | "
              f"{row['soft_mem']:>8.1f} {row['plus_mem']:>8.1f}")
    return series


def test_fig8_scalability(sweep, benchmark):
    benchmark.pedantic(lambda: sweep[-1]["plus_t"], rounds=1, iterations=1)
    for row in sweep:
        # finding 1: CrossEM+ is cheaper at every scale
        assert row["plus_scored"] < row["soft_scored"], row["size"]
        assert row["plus_mem"] <= row["soft_mem"] * 1.05, row["size"]
    # finding 2: CrossEM+'s cost grows more slowly with data size
    for cost in ("scored", "steps"):
        soft_growth = sweep[-1][f"soft_{cost}"] / sweep[0][f"soft_{cost}"]
        plus_growth = sweep[-1][f"plus_{cost}"] / sweep[0][f"plus_{cost}"]
        assert plus_growth < soft_growth, cost
