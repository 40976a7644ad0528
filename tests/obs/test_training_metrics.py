"""Training-side legibility: which batches of an epoch did any work,
how many pseudo-labels there were to find, and how many rows a
productive batch kept."""

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
    """A batch whose X_p is empty is enumerated and skipped before any
    encoder runs; the registry says how many of an epoch's batches
    were, and the liveness gauges beside it say what the rest trained
    on."""
    backward_steps = []
    kept_rows = []
    matcher = CrossEM(tiny_bundle, CrossEMConfig(
        prompt="soft", epochs=2, vertices_per_batch=2, images_per_batch=4))
    batch_loss = matcher._batch_loss
    monkeypatch.setattr(matcher, "_batch_loss", lambda *args: (
        backward_steps.append(1), kept_rows.append(len(args[2])),
        batch_loss(*args))[2])
    label_counts = []
    refresh = matcher._refresh_pseudo_labels
    monkeypatch.setattr(matcher, "_refresh_pseudo_labels", lambda: (
        refresh(), label_counts.append(len(matcher._pseudo_labels)))[0])
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
    # liveness: |X_p| after each epoch's refresh, and the mean number of
    # rows its productive batches kept — gauges hold the last epoch's
    assert len(label_counts) == 2 and 0 < label_counts[-1] <= 10
    assert [int(f["labels"]) for f in fields] == label_counts
    assert reg.get("labels.count").value == label_counts[-1]
    last_productive = 25 - int(last["batches_empty"])
    kept_mean = sum(kept_rows[-last_productive:]) / last_productive
    assert 1.0 <= kept_mean <= 2.0  # vertices_per_batch=2
    assert reg.get("train.kept_rows_mean").value == kept_mean
    assert math.isclose(float(last["kept_rows_mean"]), kept_mean,
                        abs_tol=1e-3)
