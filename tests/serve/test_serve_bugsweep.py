"""The serve-layer bug sweep: warmup failures, top_k clamp, emit death.

Previously-latent bugs, each pinned by a regression test:

* ``warmup()`` used to run encodes outside the scoring path, so a
  wedged encoder could stall startup with nothing noticing — now every
  warmup encode runs inside the answer table's tile calls, and a
  failure there fails the warm-up loudly.
* ``_parse`` accepted any positive ``top_k`` (``10**9`` included) and
  downstream code dutifully tried to honour it; now it clamps to the
  image repository size and answers with that many matches.
* ``_parse`` let a non-finite ``budget_ms`` (``NaN``, ``Infinity``)
  through: a never-expiring deadline, and a bare ``NaN`` in the exported
  trace.
* ``serve_loop``'s ``emit`` let a sink write failure propagate out of a
  worker thread mid-drain, silently killing the worker; now it is
  caught, counted (``serve.emit.failed``), and stops the loop.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.obs import registry, trace_recorder
from repro.serve import BATCH_TILE, MatchService, serve_loop


class TestWarmupThroughTiles:
    def test_warmup_scores_one_tile_per_batch_tile_vertices(
            self, fitted_soft, monkeypatch):
        """The table build is whole ``BATCH_TILE``-row score calls, one
        per ``BATCH_TILE`` vertices, and nothing else scores."""
        service = MatchService(fitted_soft)
        real = type(fitted_soft).score
        calls = []

        def spy(self, vertices=None, images=None):
            calls.append(len(vertices))
            return real(self, vertices, images)

        monkeypatch.setattr(type(fitted_soft), "score", spy)
        service.warmup()
        tiles = -(-len(fitted_soft.vertex_ids) // BATCH_TILE)
        assert calls == [BATCH_TILE] * tiles

    def test_wedged_image_encoder_fails_loud(self, fitted_soft,
                                             monkeypatch):
        """An image tower that raises during warm-up fails the warm-up
        loudly, and a request meanwhile is a typed ``internal``."""
        service = MatchService(fitted_soft)

        def broken_encode(indices=None):
            raise RuntimeError("image tower wedged")

        monkeypatch.setattr(fitted_soft, "_encode_images", broken_encode)
        with pytest.raises(RuntimeError, match="image tower wedged"):
            service.warmup()
        response = service.handle({"vertex": fitted_soft.vertex_ids[0]})
        assert response["error"]["type"] == "internal"


class TestTopKClamp:
    def test_huge_top_k_clamped_to_repository(self, make_service,
                                              fitted_soft):
        service = make_service()
        n_images = len(service.matcher.images)
        response = service.handle({"id": 1,
                                   "vertex": fitted_soft.vertex_ids[0],
                                   "top_k": 10 ** 9})
        assert response["ok"] is True
        assert len(response["matches"]) == n_images

    def test_exact_repository_size_unchanged(self, make_service,
                                             fitted_soft):
        service = make_service()
        n_images = len(service.matcher.images)
        response = service.handle({"id": 1,
                                   "vertex": fitted_soft.vertex_ids[0],
                                   "top_k": n_images})
        assert response["ok"] is True
        assert len(response["matches"]) == n_images

    def test_nonpositive_top_k_still_bad_request(self, make_service,
                                                 fitted_soft):
        service = make_service()
        response = service.handle({"id": 1,
                                   "vertex": fitted_soft.vertex_ids[0],
                                   "top_k": 0})
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"


class TestNonFiniteBudget:
    """``json.loads`` admits NaN/Infinity; a budget that never expires
    is not a budget, and a NaN in the ``request`` trace event would make
    the exported trace invalid strict JSON."""

    @pytest.mark.parametrize("budget", [
        "NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400,
    ], ids=["nan", "inf", "neg-inf", "float-overflow", "int-past-float"])
    def test_rejected_as_bad_request(self, make_service, fitted_soft,
                                     budget):
        service = make_service()
        request = json.loads('{"id": 1, "vertex": %d, "budget_ms": %s}'
                             % (fitted_soft.vertex_ids[0], budget))
        response = service.handle(request)
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert "budget_ms" in response["error"]["message"]
        for row in trace_recorder().snapshot():
            json.dumps(row, allow_nan=False)  # strict JSON or it raises

    def test_finite_budgets_still_accepted(self, make_service, fitted_soft):
        service = make_service()
        for budget in (5000, 5000.0):
            response = service.handle({"id": 1, "budget_ms": budget,
                                       "vertex": fitted_soft.vertex_ids[0]})
            assert response["ok"] is True


class _FailingSink(io.StringIO):
    """A sink that dies after ``survive`` successful writes."""

    def __init__(self, survive: int) -> None:
        super().__init__()
        self.survive = survive
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > self.survive:
            raise BrokenPipeError("reader went away")
        return super().write(text)


class TestEmitFailure:
    def test_sink_failure_stops_loop_cleanly(self, make_service,
                                             fitted_soft):
        """A broken response sink ends the loop (counted, logged) —
        no exception escapes, no worker thread dies screaming."""
        service = make_service()
        vertex = fitted_soft.vertex_ids[0]
        lines = [json.dumps({"id": i, "vertex": vertex})
                 for i in range(8)]
        source = io.StringIO("".join(line + "\n" for line in lines))
        sink = _FailingSink(survive=1)
        written = serve_loop(service, source, sink)  # must not raise
        assert written == 1
        assert registry().counter("serve.emit.failed").value >= 1

    def test_sink_failure_stops_reading(self, make_service, fitted_soft):
        """Once a write has failed the loop takes no more work: it asks
        the source for no further line."""
        service = make_service()
        line = json.dumps({"id": 1, "vertex": fitted_soft.vertex_ids[0]})
        failed = registry().counter("serve.emit.failed")
        pulled = []

        def source():
            yield line  # answered: the one write the sink survives
            yield line  # answered into the broken pipe
            deadline = time.monotonic() + 10.0
            while not failed.value and time.monotonic() < deadline:
                time.sleep(0.005)
            pulled.append("one more")
            yield line
            pulled.append("kept reading")
            yield line

        assert serve_loop(service, source(), _FailingSink(survive=1)) == 1
        assert failed.value >= 1
        assert pulled == []

    def test_healthy_sink_counts_nothing(self, make_service, fitted_soft):
        service = make_service()
        source = io.StringIO(json.dumps(
            {"id": 1, "vertex": fitted_soft.vertex_ids[0]}) + "\n")
        written = serve_loop(service, source, io.StringIO())
        assert written == 1
        assert registry().counter("serve.emit.failed").value == 0
