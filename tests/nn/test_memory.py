"""Memory tracker tests."""

import gc

import numpy as np

from repro import nn
from repro.nn.memory import MemoryTracker


class TestMemoryTracker:
    def test_records_allocations(self):
        with MemoryTracker() as tracker:
            tensor = nn.Tensor(np.zeros((100, 100), dtype=np.float32))
        assert tracker.peak_bytes >= tensor.data.nbytes

    def test_peak_reflects_simultaneous_residency(self):
        with MemoryTracker() as tracker:
            a = nn.Tensor(np.zeros(1000, dtype=np.float32))
            first_peak = tracker.current_bytes
            del a
            gc.collect()
            nn.Tensor(np.zeros(10, dtype=np.float32))
        assert tracker.peak_bytes == first_peak

    def test_nested_trackers_both_observe(self):
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                nn.Tensor(np.zeros(64, dtype=np.float32))
        assert inner.peak_bytes > 0
        assert outer.peak_bytes >= inner.peak_bytes

    def test_no_tracking_outside_context(self):
        tracker = MemoryTracker()
        nn.Tensor(np.zeros(64, dtype=np.float32))
        assert tracker.peak_bytes == 0

    def test_unit_conversions(self):
        tracker = MemoryTracker()
        tracker.peak_bytes = 1024**3
        assert tracker.peak_gb == 1.0
        assert tracker.peak_mb == 1024.0


class TestLedger:
    def test_ledger_empties_when_tensors_die(self):
        """Regression: the tracker used to append one ``weakref.finalize``
        per observed tensor to a list it never pruned (348k dead entries
        after one tune_plus fit)."""
        tracker = MemoryTracker()
        with tracker:
            assert tracker.live_count == 0
            for _ in range(200):
                x = nn.Tensor(np.ones((4, 4), dtype=np.float32),
                              requires_grad=True)
                (x * 2.0 + 1.0).sum().backward()
            del x
            gc.collect()
            assert tracker.live_count == 0
            assert tracker.current_bytes == 0
        assert tracker.peak_bytes > 0

    def test_ledger_counts_live_tensors(self):
        with MemoryTracker() as tracker:
            kept = [nn.Tensor(np.zeros(8, dtype=np.float32)) for _ in range(5)]
            assert tracker.live_count == 5
            assert tracker.current_bytes == 5 * 32
            del kept[1:]
            gc.collect()
            assert tracker.live_count == 1
            assert tracker.current_bytes == 32

    def test_tracker_outlived_by_tensors(self):
        tracker = MemoryTracker()
        with tracker:
            survivor = nn.Tensor(np.zeros(8, dtype=np.float32))
        del tracker
        gc.collect()
        del survivor  # its ledger row is gone; nothing to call back into


class TestFusedNodeAccounting:
    """A fused node is charged for every array its backward closure
    keeps alive, not just for its output."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x = nn.Tensor(rng.standard_normal((8, 9, 48)), requires_grad=True)
        self.weight = nn.Tensor(np.ones(48, dtype=np.float32))
        self.bias = nn.Tensor(np.zeros(48, dtype=np.float32))
        self.full = 8 * 9 * 48 * 4      # output, centered, normed
        self.per_row = 8 * 9 * 1 * 4    # std, var + eps

    def test_layer_norm_charges_saved_buffers(self):
        with MemoryTracker() as tracker:
            out = nn.functional.layer_norm(self.x, self.weight, self.bias)
            assert out.requires_grad
            assert tracker.live_count == 1
            assert tracker.current_bytes >= 3 * self.full + 2 * self.per_row
            assert tracker.peak_bytes >= 3 * self.full + 2 * self.per_row
            del out
            gc.collect()
            assert tracker.current_bytes == 0

    def test_no_grad_keeps_output_only_but_peak_saw_the_rest(self):
        with MemoryTracker() as tracker, nn.no_grad():
            out = nn.functional.layer_norm(self.x, self.weight, self.bias)
            assert tracker.current_bytes == out.data.nbytes == self.full
            assert tracker.peak_bytes >= 3 * self.full + 2 * self.per_row

    def test_attention_charges_its_weights(self):
        q, k, v = (nn.Tensor(np.random.default_rng(s).standard_normal(
            (8, 9, 48)), requires_grad=True) for s in range(3))
        with MemoryTracker() as tracker:
            out = nn.attention._attend(q, k, v, 4, None)
            weights = 8 * 4 * 9 * 9 * 4
            assert tracker.current_bytes >= out.data.nbytes + 2 * weights
