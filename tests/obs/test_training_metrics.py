"""Training-side legibility: which batches of an epoch did any work."""

import io
import math

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.obs import configure_logging, registry
from repro.obs import log as log_module


@pytest.fixture()
def info_log():
    stream = io.StringIO()
    configure_logging("info", stream=stream)
    yield stream
    configure_logging("warning", stream=None)
    log_module._stream = None


def test_empty_batches_are_counted(tiny_bundle, tiny_dataset, info_log,
                                   monkeypatch):
    """A batch whose X_p is empty pays its forward and no backward
    (Alg. 1); the registry says how many of an epoch's batches did."""
    backward_steps = []
    matcher = CrossEM(tiny_bundle, CrossEMConfig(
        prompt="soft", epochs=2, vertices_per_batch=2, images_per_batch=4))
    batch_loss = matcher._batch_loss
    monkeypatch.setattr(matcher, "_batch_loss", lambda *args: (
        backward_steps.append(1), batch_loss(*args))[1])
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)

    reg = registry()
    batches = reg.get("train.batches").value
    empty = reg.get("train.batches_empty").value
    assert batches == 2 * 5 * 5
    assert 0 < empty < batches
    assert batches - empty == len(backward_steps)
    # the gauge holds the last epoch's share, the log line every epoch's
    lines = [line for line in info_log.getvalue().splitlines()
             if "epoch done" in line]
    assert len(lines) == 2
    fields = [dict(part.split("=", 1) for part in line.split() if "=" in part)
              for line in lines]
    assert sum(int(f["batches_empty"]) for f in fields) == empty
    assert all(int(f["batches"]) == 25 for f in fields)
    last = fields[-1]
    share = (25 - int(last["batches_empty"])) / 25
    assert math.isclose(float(last["productive_share"]), share, abs_tol=1e-4)
    assert reg.get("train.productive_batch_share").value == share
