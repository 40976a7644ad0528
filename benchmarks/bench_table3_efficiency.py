"""Table III — training efficiency (per-epoch time T, peak memory Mem).

The paper reports the average per-epoch training time and peak GPU
memory of each trainable method on CUB, SUN and FB2K-IMG, finding that
CrossEM+ is both the fastest and the lightest thanks to PCP mini-batch
generation.  This bench measures the same two quantities with the
engine's memory meter (see ``repro.nn.memory`` for the substitution) —
and, beside wall seconds, what an epoch costs in counts: candidate
pairs enumerated in batches, pairs scored while pseudo-labelling, and
productive steps.

Wall seconds are reported, not asserted: the trainer skips a batch
whose X_p is empty before any encoder runs, so s/epoch is dominated by
the few dozen productive steps both methods take and no longer
separates them at this scale (it used to, by the number of discarded
forwards — a ratio of empty-batch counts).  The counts do not depend
on what is skipped and are equal on every box.

Shape assertions:
1. CrossEM+ enumerates and label-scores fewer candidate pairs per
   epoch than CrossEM w/ f_s on every dataset (the Alg. 2 pruning
   claim).
2. CrossEM+ peaks no higher in memory than CrossEM w/ f_s.
"""

import pytest

from bench_common import (MethodResult, crossem_config, crossem_plus_config,
                          print_table)
from repro.core import CrossEM, CrossEMPlus
from repro.datasets import (cub_bundle, fb_bundle, load_cub, load_fbimg,
                            load_sun, sun_bundle, train_test_split)

#: paper values (T seconds / Mem GB) on the authors' RTX3090 testbed
PAPER = {
    "cub-mini": {"CrossEM w/ f_s": "53s/10.5GB", "CrossEM+": "42s/9.3GB"},
    "sun-mini": {"CrossEM w/ f_s": "404s/11.7GB", "CrossEM+": "118s/10.2GB"},
    "fb2k-img-mini": {"CrossEM w/ f_s": "273s/18.6GB",
                      "CrossEM+": "208s/16.1GB"},
}

DATASETS = [
    ("cub", load_cub, cub_bundle),
    ("sun", load_sun, sun_bundle),
    ("fb2k", lambda seed=0: load_fbimg("fb2k", seed), fb_bundle),
]


@pytest.fixture(scope="module", params=DATASETS, ids=[d[0] for d in DATASETS])
def efficiency(request):
    _, loader, bundler = request.param
    bundle = bundler()
    dataset = loader()
    split = train_test_split(dataset, 0.5, seed=0)

    soft = CrossEM(bundle, crossem_config("soft", dataset))
    soft.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    plus = CrossEMPlus(bundle, crossem_plus_config(dataset))
    plus.fit(dataset.graph, dataset.images, dataset.entity_vertices)

    results = [
        MethodResult("CrossEM w/ f_s", soft.evaluate(dataset, split.test),
                     soft.efficiency),
        MethodResult("CrossEM+", plus.evaluate(dataset, split.test),
                     plus.efficiency),
    ]
    print_table(f"Table III - {dataset.name}", results,
                paper=PAPER[dataset.name], efficiency=True)
    return dataset, results


def test_table3_efficiency(efficiency, benchmark):
    dataset, results = efficiency
    soft, plus = (row.efficiency for row in results)
    benchmark.pedantic(lambda: plus.seconds_per_epoch, rounds=1, iterations=1)
    # finding 1: CrossEM+ visits fewer candidate pairs per epoch — a
    # deterministic count; wall s/epoch is in the printed table
    assert soft.scored_pairs_per_epoch == 2 * dataset.num_candidate_pairs
    assert plus.scored_pairs_per_epoch < soft.scored_pairs_per_epoch, \
        dataset.name
    # finding 2: CrossEM+ does not peak above CrossEM w/ f_s in memory
    assert plus.peak_memory_mb <= soft.peak_memory_mb * 1.05, dataset.name
