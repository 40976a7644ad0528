"""REPROIX1 shard container and the memory-mapped embedding store.

The contract under test: sections round-trip bit-exactly through the
shard, readers hand out memmap views (not copies), and the budgeted
store serves a repository larger than its memory budget by slicing the
map instead of materializing it."""

import numpy as np
import pytest

from repro.index import (EmbeddingStore, MemoryBudgetExceeded, ShardReader,
                         dequantize_int8, quantize_int8, write_shard)


@pytest.fixture()
def sections(rng):
    return {
        "alpha": rng.standard_normal((40, 16)).astype(np.float32),
        "beta": rng.integers(0, 255, size=(40, 8)).astype(np.uint8),
        "gamma": np.arange(41, dtype=np.int64),
    }


class TestShardRoundtrip:
    def test_sections_round_trip_bit_exact(self, sections, tmp_path):
        path = write_shard(tmp_path / "x.ix", sections,
                           meta={"kind": "test", "n": 3})
        reader = ShardReader(path, verify="full")
        assert reader.meta == {"kind": "test", "n": 3}
        assert reader.section_names() == sorted(sections)
        for name, array in sections.items():
            got = reader.section(name)
            assert got.dtype == array.dtype
            np.testing.assert_array_equal(np.asarray(got), array)

    def test_sections_are_memmap_views(self, sections, tmp_path):
        path = write_shard(tmp_path / "x.ix", sections)
        reader = ShardReader(path)
        assert isinstance(reader.section("alpha"), np.memmap)

    def test_empty_sections_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_shard(tmp_path / "x.ix", {})

    def test_offsets_are_aligned(self, sections, tmp_path):
        path = write_shard(tmp_path / "x.ix", sections)
        reader = ShardReader(path)
        for name in reader.section_names():
            assert reader.section_entry(name)["offset"] % 64 == 0

    def test_sections_are_aligned_in_the_file(self, sections, tmp_path):
        """Whatever the header's length, the padded header puts every
        section of a reopened shard on a 64-byte boundary in memory."""
        for pad in range(0, 64, 5):
            path = write_shard(tmp_path / f"x{pad}.ix", sections,
                               meta={"pad": "x" * pad})
            reader = ShardReader(path, verify="full")
            for name, array in sections.items():
                got = reader.section(name)
                assert got.ctypes.data % 64 == 0, (pad, name)
                np.testing.assert_array_equal(np.asarray(got), array)

    def test_an_unpadded_shard_still_opens(self, sections, tmp_path):
        """A shard written before the header was padded: its header
        ends at the JSON's last byte."""
        path = write_shard(tmp_path / "x.ix", sections,
                           meta={"pad": "xyz"})
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = blob[16:16 + header_len].rstrip(b" ")
        path.write_bytes(blob[:8] + len(header).to_bytes(8, "little")
                         + header + blob[16 + header_len:])
        reader = ShardReader(path, verify="full")
        reader.verify_payload()
        for name, array in sections.items():
            np.testing.assert_array_equal(np.asarray(reader.section(name)),
                                          array)


class TestInt8Quantization:
    def test_round_trip_error_is_bounded_by_scale(self, rng):
        emb = rng.standard_normal((30, 24)).astype(np.float32)
        codes, scales = quantize_int8(emb)
        assert codes.dtype == np.int8
        back = dequantize_int8(codes, scales)
        # worst case is half a quantization step per component
        assert np.max(np.abs(back - emb) - scales[:, None] / 2.0) < 1e-6

    def test_zero_vector_stays_zero(self):
        emb = np.zeros((2, 8), dtype=np.float32)
        codes, scales = quantize_int8(emb)
        assert scales.tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(dequantize_int8(codes, scales), emb)


class TestEmbeddingStore:
    def test_take_matches_source_rows(self, rng, tmp_path):
        emb = rng.standard_normal((64, 12)).astype(np.float32)
        store = EmbeddingStore.open(
            EmbeddingStore.create(tmp_path / "e.ix", emb))
        rows = np.asarray([3, 0, 63, 3])
        np.testing.assert_array_equal(store.take(rows), emb[rows])

    def test_int8_precision_tier(self, rng, tmp_path):
        emb = rng.standard_normal((16, 12)).astype(np.float32)
        store = EmbeddingStore.open(
            EmbeddingStore.create(tmp_path / "e.ix", emb))
        approx = store.take(np.arange(16), precision="int8")
        assert np.max(np.abs(approx - emb)) < np.abs(emb).max() / 64

    def test_budget_blocks_materialize_but_not_take(self, rng, tmp_path):
        """A repository larger than the memory budget keeps serving
        row reads — only whole-matrix inflation is refused."""
        emb = rng.standard_normal((256, 32)).astype(np.float32)  # 32 KiB
        store = EmbeddingStore.open(
            EmbeddingStore.create(tmp_path / "e.ix", emb),
            memory_budget_bytes=1024)
        with pytest.raises(MemoryBudgetExceeded):
            store.materialize()
        np.testing.assert_array_equal(store.take(np.asarray([7, 250])),
                                      emb[[7, 250]])

    def test_budget_large_enough_materializes(self, rng, tmp_path):
        emb = rng.standard_normal((8, 4)).astype(np.float32)
        store = EmbeddingStore.open(
            EmbeddingStore.create(tmp_path / "e.ix", emb),
            memory_budget_bytes=1 << 20)
        np.testing.assert_array_equal(store.materialize(), emb)
