"""REPROIX1 — the memory-mapped, checksummed index shard container.

One shard file holds named numpy sections (coarse centroids, PQ
codebooks, inverted lists, the full-precision and int8-compressed
embedding matrices) in a layout a reader can map lazily::

    MAGIC (8 bytes) | header length (8-byte LE) | header JSON | payload

The header records the schema version, the caller's metadata, and for
every section its payload offset (a multiple of 64), dtype, shape and
SHA-256 digest.  The writer pads the header JSON with trailing spaces
until the payload starts at a multiple of 64 bytes in the file, so each
section is 64-byte aligned in the file and in its map — aligned enough
for numpy to hand a mapped matrix to BLAS.  The payload is the raw
section bytes — *not* an npz — so a reader can hand out ``np.memmap``
views straight into the file: opening a shard reads only the header,
and scoring a shortlist touches only those vectors' pages.  That is what lets a repository larger than
RAM (or than the configured memory budget) be served without ever
loading it fully.

Integrity follows the REPROCK1 checkpoint pattern with one twist:
because a full-digest check would defeat lazy opening, verification is
tiered.  ``verify="lazy"`` (the serving default) checks magic, schema,
header well-formedness and that the file length matches the header's
payload length — every truncation and torn write is caught for free.
``verify="full"`` additionally streams each section through SHA-256 in
bounded chunks (never materializing a section), catching bit rot; the
build path and ``repro index stats --verify`` use it.  All damage is
reported as :class:`IndexShardCorruptError`, a
:class:`~repro.iosafe.CorruptArtifactError`, so the fault-handling
callers already have (quarantine + typed errors) applies unchanged.

Writes go through :func:`repro.iosafe.atomic_write_bytes`, so a crash
mid-build never leaves a half-written shard at the final path.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..iosafe import CorruptArtifactError, atomic_write_bytes, retry_io
from ..obs import get_logger, registry, span

__all__ = ["SHARD_MAGIC", "SHARD_SCHEMA_VERSION", "IndexShardCorruptError",
           "MemoryBudgetExceeded", "write_shard", "ShardReader",
           "EmbeddingStore", "quantize_int8", "dequantize_int8"]

_log = get_logger("repro.index.store")

SHARD_MAGIC = b"REPROIX1"
SHARD_SCHEMA_VERSION = 1

_HEADER_PREFIX = len(SHARD_MAGIC) + 8
#: a header larger than this is certainly garbage length bytes
_MAX_HEADER_BYTES = 64 * 1024 * 1024
#: section payloads start on this alignment (page-friendly mmap slices)
_ALIGN = 64
#: streaming digest chunk — bounds full-verify memory at ~4 MiB
_DIGEST_CHUNK = 4 * 1024 * 1024


class IndexShardCorruptError(CorruptArtifactError):
    """The shard's bytes fail magic/schema/length/digest validation."""


class MemoryBudgetExceeded(RuntimeError):
    """Materializing this data would exceed the configured memory
    budget; callers should stay on the memory-mapped path instead."""


def _align(offset: int) -> int:
    return int(math.ceil(offset / _ALIGN) * _ALIGN)


def write_shard(path: Union[str, Path], sections: Dict[str, np.ndarray],
                meta: Optional[dict] = None) -> Path:
    """Atomically publish ``sections`` + ``meta`` as a REPROIX1 shard.

    Every section is stored C-contiguous at a 64-byte-aligned file
    offset with its own SHA-256 digest, so a reader can verify and map
    each independently.  Returns the path written.
    """
    if not sections:
        raise ValueError("a shard needs at least one section")
    entries: Dict[str, dict] = {}
    blobs: List[Tuple[int, bytes]] = []
    offset = 0
    for name in sorted(sections):
        array = np.ascontiguousarray(sections[name])
        raw = array.tobytes()
        offset = _align(offset)
        entries[name] = {
            "offset": offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "sha256": hashlib.sha256(raw).hexdigest(),
        }
        blobs.append((offset, raw))
        offset += len(raw)
    payload_bytes = offset
    header = json.dumps({
        "schema": SHARD_SCHEMA_VERSION,
        "payload_bytes": payload_bytes,
        "sections": entries,
        "meta": meta or {},
    }, sort_keys=True).encode()
    # JSON allows trailing whitespace: the payload starts aligned
    header += b" " * (-(_HEADER_PREFIX + len(header)) % _ALIGN)
    payload = bytearray(payload_bytes)
    for start, raw in blobs:
        payload[start:start + len(raw)] = raw
    blob = (SHARD_MAGIC + len(header).to_bytes(8, "little")
            + header + bytes(payload))
    with span("index/shard_write"):
        path = retry_io(lambda: atomic_write_bytes(path, blob),
                        name="index.shard.write")
    registry().counter("index.shard.write").inc()
    _log.debug("index shard written", path=str(path), bytes=len(blob),
               sections=len(entries))
    return path


class ShardReader:
    """Lazily opened REPROIX1 shard: header eagerly verified, sections
    handed out as read-only ``np.memmap`` views on demand.

    ``verify`` selects the integrity tier — ``"lazy"`` (structural:
    magic, schema, header JSON, exact file length) or ``"full"``
    (structural + streamed per-section SHA-256).  Both raise
    :class:`IndexShardCorruptError` on damage; lazy never reads the
    payload at all.
    """

    def __init__(self, path: Union[str, Path],
                 verify: str = "lazy") -> None:
        if verify not in ("lazy", "full"):
            raise ValueError(f"unknown verify tier {verify!r}")
        self.path = Path(path)
        self._maps: Dict[str, np.memmap] = {}
        header = retry_io(self._read_header, name="index.shard.open")
        self._sections: Dict[str, dict] = header["sections"]
        self.meta: dict = header.get("meta", {})
        self._data_start: int = header["data_start"]
        self._payload_bytes: int = header["payload_bytes"]
        if verify == "full":
            self.verify_payload()
        registry().counter("index.shard.open").inc()

    # -- header / structural validation ---------------------------------
    def _read_header(self) -> dict:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            raise
        with open(self.path, "rb") as fh:
            prefix = fh.read(_HEADER_PREFIX)
            if len(prefix) < _HEADER_PREFIX:
                raise IndexShardCorruptError(
                    f"shard {self.path} truncated before header")
            if prefix[:len(SHARD_MAGIC)] != SHARD_MAGIC:
                raise IndexShardCorruptError(
                    f"shard {self.path} has bad magic")
            header_len = int.from_bytes(prefix[len(SHARD_MAGIC):], "little")
            if header_len <= 0 or header_len > _MAX_HEADER_BYTES or \
                    _HEADER_PREFIX + header_len > size:
                raise IndexShardCorruptError(
                    f"shard {self.path} header length out of range")
            raw_header = fh.read(header_len)
        if len(raw_header) < header_len:
            raise IndexShardCorruptError(
                f"shard {self.path} truncated inside header")
        try:
            header = json.loads(raw_header)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexShardCorruptError(
                f"shard {self.path} header is not valid JSON") from exc
        if not isinstance(header, dict) or \
                not isinstance(header.get("sections"), dict):
            raise IndexShardCorruptError(
                f"shard {self.path} header missing sections")
        if header.get("schema") != SHARD_SCHEMA_VERSION:
            raise IndexShardCorruptError(
                f"unsupported shard schema {header.get('schema')!r} "
                f"(this build reads schema {SHARD_SCHEMA_VERSION})")
        data_start = _HEADER_PREFIX + header_len
        payload_bytes = header.get("payload_bytes")
        if not isinstance(payload_bytes, int) or \
                data_start + payload_bytes != size:
            raise IndexShardCorruptError(
                f"shard {self.path} length mismatch: header promises "
                f"{payload_bytes} payload bytes, file has "
                f"{size - data_start}")
        for name, entry in header["sections"].items():
            try:
                dtype = np.dtype(entry["dtype"])
                shape = tuple(int(d) for d in entry["shape"])
                offset = int(entry["offset"])
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexShardCorruptError(
                    f"shard {self.path} section {name!r} entry is "
                    f"malformed") from exc
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if offset < 0 or offset + nbytes > payload_bytes:
                raise IndexShardCorruptError(
                    f"shard {self.path} section {name!r} overruns the "
                    f"payload")
        header["data_start"] = data_start
        return header

    # -- payload access --------------------------------------------------
    def section_names(self) -> List[str]:
        return sorted(self._sections)

    def section_entry(self, name: str) -> dict:
        if name not in self._sections:
            raise KeyError(f"shard {self.path} has no section {name!r}")
        return self._sections[name]

    def section_nbytes(self, name: str) -> int:
        entry = self.section_entry(name)
        dtype = np.dtype(entry["dtype"])
        return dtype.itemsize * int(np.prod(entry["shape"], dtype=np.int64))

    def section(self, name: str) -> np.ndarray:
        """A read-only ``np.memmap`` view of one section (cached); only
        the pages a caller slices are ever faulted in."""
        if name not in self._maps:
            entry = self.section_entry(name)
            self._maps[name] = np.memmap(
                self.path, mode="r", dtype=np.dtype(entry["dtype"]),
                offset=self._data_start + int(entry["offset"]),
                shape=tuple(int(d) for d in entry["shape"]))
        return self._maps[name]

    def verify_payload(self) -> None:
        """Stream every section through SHA-256 in bounded chunks;
        raises :class:`IndexShardCorruptError` on the first mismatch."""
        with span("index/shard_verify"), open(self.path, "rb") as fh:
            for name in self.section_names():
                entry = self._sections[name]
                digest = hashlib.sha256()
                fh.seek(self._data_start + int(entry["offset"]))
                remaining = self.section_nbytes(name)
                while remaining > 0:
                    chunk = fh.read(min(_DIGEST_CHUNK, remaining))
                    if not chunk:
                        raise IndexShardCorruptError(
                            f"shard {self.path} section {name!r} "
                            f"truncated mid-payload")
                    digest.update(chunk)
                    remaining -= len(chunk)
                if digest.hexdigest() != entry.get("sha256"):
                    registry().counter("index.shard.corrupt").inc()
                    raise IndexShardCorruptError(
                        f"shard {self.path} section {name!r} digest "
                        f"mismatch")

    def close(self) -> None:
        self._maps.clear()


# -- int8 embedding compression ---------------------------------------------
def quantize_int8(embeddings: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-vector int8 quantization: ``codes, scales`` with
    ``x ≈ codes * scales[:, None]``.  All-zero vectors get scale 0."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    peak = np.abs(embeddings).max(axis=1)
    scales = (peak / 127.0).astype(np.float32)
    safe = np.where(scales > 0, scales, 1.0).astype(np.float32)
    codes = np.clip(np.rint(embeddings / safe[:, None]), -127, 127)
    return codes.astype(np.int8), scales


def dequantize_int8(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_int8` (lossy)."""
    return codes.astype(np.float32) * np.asarray(
        scales, dtype=np.float32)[:, None]


class EmbeddingStore:
    """The compressed, memory-mapped embedding repository.

    Holds the frozen image-tower matrix twice: full-precision float32
    (the exact re-rank operand) and int8-per-vector-scale (4x smaller,
    for budget-constrained bulk access).  Both live in one REPROIX1
    shard and are only ever sliced — :meth:`take` copies just the
    requested rows out of the map, and :meth:`materialize` refuses to
    inflate a matrix past the configured ``memory_budget_bytes``.
    """

    SECTION_FULL = "embeddings.f32"
    SECTION_INT8 = "embeddings.int8"
    SECTION_SCALES = "embeddings.int8_scales"

    def __init__(self, reader: ShardReader,
                 memory_budget_bytes: Optional[int] = None) -> None:
        self.reader = reader
        self.memory_budget_bytes = memory_budget_bytes
        entry = reader.section_entry(self.SECTION_FULL)
        self.count, self.dim = (int(entry["shape"][0]),
                                int(entry["shape"][1]))
        registry().gauge("index.store.mapped_bytes").set(
            reader.section_nbytes(self.SECTION_FULL)
            + reader.section_nbytes(self.SECTION_INT8)
            + reader.section_nbytes(self.SECTION_SCALES))

    # -- construction ----------------------------------------------------
    @staticmethod
    def sections_for(embeddings: np.ndarray) -> Dict[str, np.ndarray]:
        """The store's shard sections for ``embeddings`` (callers merge
        these with their own sections before :func:`write_shard`)."""
        embeddings = np.asarray(embeddings, dtype=np.float32)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be a 2-D matrix")
        codes, scales = quantize_int8(embeddings)
        return {EmbeddingStore.SECTION_FULL: embeddings,
                EmbeddingStore.SECTION_INT8: codes,
                EmbeddingStore.SECTION_SCALES: scales}

    @classmethod
    def create(cls, path: Union[str, Path], embeddings: np.ndarray,
               meta: Optional[dict] = None) -> Path:
        """Write a standalone embedding-store shard (full-verified)."""
        written = write_shard(path, cls.sections_for(embeddings), meta)
        ShardReader(written, verify="full")
        return written

    @classmethod
    def open(cls, path: Union[str, Path], *, verify: str = "lazy",
             memory_budget_bytes: Optional[int] = None) -> "EmbeddingStore":
        return cls(ShardReader(path, verify=verify),
                   memory_budget_bytes=memory_budget_bytes)

    # -- access ----------------------------------------------------------
    @property
    def full(self) -> np.ndarray:
        """The float32 matrix as a read-only memmap view."""
        return self.reader.section(self.SECTION_FULL)

    def take(self, rows: np.ndarray, precision: str = "full") -> np.ndarray:
        """Copy ``rows`` out of the map — the only pages touched are the
        ones those rows live on, so shortlist re-ranks stay cheap no
        matter how large the repository is."""
        rows = np.asarray(rows, dtype=np.int64)
        if precision == "full":
            return np.asarray(np.take(self.full, rows, axis=0),
                              dtype=np.float32)
        if precision == "int8":
            codes = self.reader.section(self.SECTION_INT8)[rows]
            scales = self.reader.section(self.SECTION_SCALES)[rows]
            return dequantize_int8(np.asarray(codes), np.asarray(scales))
        raise ValueError(f"unknown precision {precision!r}")

    def materialize(self, precision: str = "full") -> np.ndarray:
        """The whole matrix as an in-memory array — guarded by the
        budget: serving a repository bigger than RAM must never take
        this path by accident."""
        nbytes = self.reader.section_nbytes(
            self.SECTION_FULL if precision == "full" else self.SECTION_INT8)
        if self.memory_budget_bytes is not None and \
                nbytes > self.memory_budget_bytes:
            raise MemoryBudgetExceeded(
                f"materializing {nbytes} bytes of {precision} embeddings "
                f"exceeds the {self.memory_budget_bytes}-byte budget; use "
                f"take() on the memory-mapped store instead")
        return self.take(np.arange(self.count), precision=precision)
