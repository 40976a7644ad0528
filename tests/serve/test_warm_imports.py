"""After ``warmup()`` a request loads no module.

The first served request used to pay a lazy ``repro.index`` import
inside its top-k selection (~15 ms, once — on the request that can
least afford it).  A short request and the deepest one are checked;
both are slices of the answer table.  The check runs in a fresh
interpreter: in this process the rest of the suite has long since
imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
from repro.clip.pretrain import PretrainConfig
from repro.clip.zoo import get_pretrained_bundle
from repro.core.matcher import CrossEM, CrossEMConfig
from repro.datasets.generator import build_attribute_dataset
from repro.serve import MatchService

bundle = get_pretrained_bundle(
    kind="bird", num_concepts=16, seed=7,
    config=PretrainConfig(epochs=20, batch_size=16, captions_per_concept=6,
                          seed=7))
dataset = build_attribute_dataset(bundle.universe, name="tiny-cub",
                                  concept_indices=range(10),
                                  images_per_concept=2, seed=7)
matcher = CrossEM(bundle, CrossEMConfig(prompt=sys.argv[1], epochs=0))
matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
service = MatchService(matcher).warmup()
loaded = set(sys.modules)
# a short slice of the answer table, then the whole row
for top_k in (3, len(matcher.images)):
    response = service.handle({"vertex": matcher.vertex_ids[0],
                               "top_k": top_k})
    assert response["ok"] and response["tier"] == "full", response
late = sorted(name for name in set(sys.modules) - loaded
              if name.split(".")[0] == "repro")
print("late imports:", late)
sys.exit(1 if late else 0)
"""


@pytest.mark.parametrize("prompt", ["soft", "hard"])
def test_handle_after_warmup_imports_no_repro_module(prompt, tiny_bundle):
    # tiny_bundle: the fixture has put the bundle in the disk cache the
    # child reads, so the child never pre-trains
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p])
    done = subprocess.run([sys.executable, "-c", SCRIPT, prompt], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
