"""Chunked/thread-pooled encode helper and the batched patch featurizer:
chunking, pooling and batching must be invisible in the output bits."""

import threading
import time

import numpy as np
import pytest

from repro.vision.pipeline import chunked_encode, resolve_workers
from tests.oracles.vision import features_batch_reference


class TestChunkedEncode:
    def test_concatenates_in_index_order(self):
        data = np.arange(23, dtype=np.float32)[:, None]
        out = chunked_encode(lambda s, e: data[s:e], 23, chunk=5)
        np.testing.assert_array_equal(out, data)

    def test_threaded_matches_serial(self):
        rng = np.random.default_rng(0)
        data = rng.random((37, 4)).astype(np.float32)
        serial = chunked_encode(lambda s, e: data[s:e] * 2.0, 37, chunk=4,
                                workers=0)
        threaded = chunked_encode(lambda s, e: data[s:e] * 2.0, 37, chunk=4,
                                  workers=4)
        np.testing.assert_array_equal(serial, threaded)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chunked_encode(lambda s, e: np.zeros((e - s, 1)), 0)

    def test_poisoned_chunk_raises_promptly_and_cancels_rest(self):
        """A worker exception propagates as soon as it happens, and the
        chunks still queued behind the two busy workers are cancelled
        instead of all running to completion first."""
        executed = []
        lock = threading.Lock()

        def encode(s, e):
            if s == 0:
                raise ValueError("poisoned chunk")
            time.sleep(0.05)
            with lock:
                executed.append(s)
            return np.zeros((e - s, 1), dtype=np.float32)

        with pytest.raises(ValueError, match="poisoned chunk"):
            chunked_encode(encode, 64, chunk=4, workers=2)
        # 16 chunks total; the poison fires immediately, so with 2
        # workers only the handful already dequeued may finish — the
        # long tail must have been cancelled, never executed.
        assert len(executed) < 8

    def test_poisoned_serial_chunk_raises(self):
        def encode(s, e):
            if s >= 8:
                raise ValueError("poisoned chunk")
            return np.zeros((e - s, 1), dtype=np.float32)

        with pytest.raises(ValueError, match="poisoned chunk"):
            chunked_encode(encode, 16, chunk=4, workers=0)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENCODE_WORKERS", raising=False)
        assert resolve_workers(None) == 0
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_ENCODE_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.setenv("REPRO_ENCODE_WORKERS", "bogus")
        assert resolve_workers(None) == 0


class TestBatchedPatchFeatures:
    def test_features_batch_matches_reference(self, tiny_bundle,
                                              tiny_dataset):
        extractor = tiny_bundle.patch_extractor
        batched = extractor.features_batch(tiny_dataset.images)
        reference = features_batch_reference(extractor, tiny_dataset.images)
        np.testing.assert_array_equal(batched, reference)

    def test_aligned_batch_matches_per_image(self, tiny_bundle,
                                             tiny_dataset):
        aligner = tiny_bundle.aligner
        batched = aligner.patch_text_space_batch(tiny_dataset.images)
        reference = np.stack([aligner.patch_text_space(img.pixels)
                              for img in tiny_dataset.images])
        np.testing.assert_array_equal(batched, reference)

    def test_threaded_image_tower_matches_serial(self, tiny_bundle,
                                                 tiny_dataset):
        import repro.nn as nn
        clip = tiny_bundle.clip
        pixels = lambda s, e: np.stack(
            [img.pixels for img in tiny_dataset.images[s:e]])
        with nn.no_grad():
            serial = chunked_encode(
                lambda s, e: clip.encode_image(pixels(s, e)).numpy(),
                len(tiny_dataset.images), chunk=4, workers=0)
            threaded = chunked_encode(
                lambda s, e: clip.encode_image(pixels(s, e)).numpy(),
                len(tiny_dataset.images), chunk=4, workers=4)
        np.testing.assert_array_equal(serial, threaded)


class TestTraceAttribution:
    """Pooled chunks must land their spans in the *owning request's*
    trace tree, not the worker thread's own (empty) context."""

    @staticmethod
    def make_tracer():
        from repro.obs.trace import SamplePolicy, TraceRecorder, Tracer

        recorder = TraceRecorder()
        return Tracer(policy=SamplePolicy(rate=1.0),
                      recorder=recorder), recorder

    @staticmethod
    def chunk_spans(row, name):
        chunked = next(c for c in row["spans"]["children"]
                       if c["name"] == f"{name}/chunked")
        return chunked, [c for c in chunked["children"]
                         if c["name"] == f"{name}/chunk"]

    def test_pooled_chunks_attributed_to_request_tree(self):
        tracer, recorder = self.make_tracer()
        with tracer.trace("req"):
            out = chunked_encode(lambda s, e: np.zeros((e - s, 1)),
                                 16, chunk=4, workers=2, name="enc")
        assert out.shape == (16, 1)
        [row] = recorder.snapshot()
        chunked, chunks = self.chunk_spans(row, "enc")
        assert len(chunks) == 4
        assert all(c["start_ms"] >= chunked["start_ms"] for c in chunks)

    def test_first_exception_path_still_attributes_spans(self):
        tracer, recorder = self.make_tracer()

        def encode(s, e):
            if s == 0:
                raise ValueError("poisoned chunk")
            time.sleep(0.02)
            return np.zeros((e - s, 1), dtype=np.float32)

        with pytest.raises(ValueError, match="poisoned chunk"):
            with tracer.trace("req"):
                chunked_encode(encode, 64, chunk=4, workers=2, name="enc")
        [row] = recorder.snapshot()
        chunked, chunks = self.chunk_spans(row, "enc")
        # the poisoned chunk's span is in the tree (closed on the way
        # out), and the cancellation left a typed pool event behind
        assert 1 <= len(chunks) <= 16
        pool = [e for e in chunked["events"] if e["kind"] == "pool"]
        assert pool and pool[0]["attrs"]["name"] == "enc"

    def test_concurrent_requests_do_not_leak_chunk_spans(self):
        tracer, recorder = self.make_tracer()
        barrier = threading.Barrier(2)

        def request(tag):
            with tracer.trace(f"req-{tag}"):
                barrier.wait(timeout=5)
                chunked_encode(lambda s, e: np.zeros((e - s, 1)),
                               12, chunk=4, workers=2, name=tag)

        threads = [threading.Thread(target=request, args=(tag,))
                   for tag in ("alpha", "beta")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        rows = {row["name"]: row for row in recorder.snapshot()}
        assert set(rows) == {"req-alpha", "req-beta"}
        for tag in ("alpha", "beta"):
            row = rows[f"req-{tag}"]
            chunked, chunks = self.chunk_spans(row, tag)
            assert len(chunks) == 3  # all of ours, none of theirs
            names = {c["name"] for c in row["spans"]["children"]}
            assert names == {f"{tag}/chunked"}

    def test_serial_path_also_traces_chunks(self):
        tracer, recorder = self.make_tracer()
        with tracer.trace("req"):
            chunked_encode(lambda s, e: np.zeros((e - s, 1)),
                           8, chunk=4, workers=0, name="enc")
        [row] = recorder.snapshot()
        _, chunks = self.chunk_spans(row, "enc")
        assert len(chunks) == 2

    def test_untraced_call_stays_untraced(self):
        _, recorder = self.make_tracer()
        chunked_encode(lambda s, e: np.zeros((e - s, 1)), 8, chunk=4,
                       workers=2, name="enc")
        assert len(recorder) == 0
