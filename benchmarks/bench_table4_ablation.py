"""Table IV — ablation of CrossEM / CrossEM+ components.

Six configurations on each dataset, exactly the paper's rows:
CrossEM w/ f_h, CrossEM w/ f_s, CrossEM+ w/o MBG, w/o NS, w/o OPC and
the full CrossEM+, reporting H@1 / H@5 / MRR plus T, Mem and the
skip-invariant cost counts (pairs enumerated, pairs label-scored,
productive steps per epoch).

Shape assertions:
1. Hard prompts report no training cost (the paper's "-" entries).
2. MBG's partitions cost no more candidate pairs per epoch than the
   random partitions of the same granularity that replace them (within
   25 %) — a deterministic count.  Wall s/epoch is printed, not
   asserted: once empty-X_p batches are skipped before the encoders it
   follows the productive steps, which the two variants share within
   noise.  (By construction "w/o MBG" keeps PCP's granularity, so its
   pair count differs from the full method's only by NS padding: the
   paper's time penalty for removing MBG does not reproduce in counts.)
3. The full CrossEM+ is at least as accurate (MRR) as each single-
   component removal, within a small tolerance.
"""

import pytest

from bench_common import (MethodResult, crossem_config, crossem_plus_config,
                          print_table, run_crossem, run_crossem_plus)
from repro.datasets import (cub_bundle, fb_bundle, load_cub, load_fbimg,
                            load_sun, sun_bundle, train_test_split)

PAPER = {
    "cub-mini": {
        "CrossEM w/ f_h": "72/0.79 (T=-)", "CrossEM w/ f_s": "78/0.84 (53s)",
        "CrossEM+ w/o MBG": "82/0.86 (61s)", "CrossEM+ w/o NS": "82/0.86 (33s)",
        "CrossEM+ w/o OPC": "81/0.86 (59s)", "CrossEM+": "82/0.86 (42s)"},
    "sun-mini": {
        "CrossEM w/ f_h": "51/0.54 (T=-)", "CrossEM w/ f_s": "57/0.58 (404s)",
        "CrossEM+ w/o MBG": "24/0.25 (443s)", "CrossEM+ w/o NS": "57/0.58 (173s)",
        "CrossEM+ w/o OPC": "57/0.58 (227s)", "CrossEM+": "57/0.58 (118s)"},
    "fb2k-img-mini": {
        "CrossEM w/ f_h": "60/0.65 (T=-)", "CrossEM w/ f_s": "53/0.57 (273s)",
        "CrossEM+ w/o MBG": "65/0.70 (321s)", "CrossEM+ w/o NS": "64/0.68 (264s)",
        "CrossEM+ w/o OPC": "58/0.62 (224s)", "CrossEM+": "65/0.69 (208s)"},
}

DATASETS = [
    ("cub", load_cub, cub_bundle),
    ("sun", load_sun, sun_bundle),
    ("fb2k", lambda seed=0: load_fbimg("fb2k", seed), fb_bundle),
]


@pytest.fixture(scope="module", params=DATASETS, ids=[d[0] for d in DATASETS])
def ablation(request):
    _, loader, bundler = request.param
    bundle = bundler()
    dataset = loader()
    split = train_test_split(dataset, 0.5, seed=0)
    results = [
        run_crossem(bundle, dataset, split, "hard"),
        run_crossem(bundle, dataset, split, "soft"),
        run_crossem_plus(bundle, dataset, split, use_mbg=False,
                         label="CrossEM+ w/o MBG"),
        run_crossem_plus(bundle, dataset, split, use_ns=False,
                         label="CrossEM+ w/o NS"),
        run_crossem_plus(bundle, dataset, split, use_opc=False,
                         label="CrossEM+ w/o OPC"),
        run_crossem_plus(bundle, dataset, split),
    ]
    print_table(f"Table IV - {dataset.name}", results,
                paper=PAPER[dataset.name], efficiency=True)
    return dataset, results


def test_table4_ablation(ablation, benchmark):
    dataset, results = ablation
    rows = {r.method: r for r in results}
    benchmark.pedantic(lambda: rows["CrossEM+"], rounds=1, iterations=1)
    # finding 1: hard prompts never train
    assert rows["CrossEM w/ f_h"].efficiency is None
    # finding 2: MBG costs no more pairs than random partitions
    assert (rows["CrossEM+"].efficiency.scored_pairs_per_epoch
            < rows["CrossEM+ w/o MBG"].efficiency.scored_pairs_per_epoch
            * 1.25), dataset.name
    # finding 3: no single removal beats the full method decisively
    full = rows["CrossEM+"].ranking.mrr
    for name in ("CrossEM+ w/o MBG", "CrossEM+ w/o NS", "CrossEM+ w/o OPC"):
        assert full >= rows[name].ranking.mrr - 0.05, (dataset.name, name)
