"""The stale LRU keeps rows, not the fused blocks they were cut from.

``handle_batch`` scores a fused group in one call; if each request were
handed a *view* of that block, a single surviving stale entry would pin
``max_batch x |I|`` floats, and the cache's real footprint would be
``stale_capacity x max_batch`` rows instead of ``stale_capacity``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import IVFPQConfig


def reachable_bytes(rows) -> int:
    """Bytes of the distinct root buffers the rows keep alive."""
    roots = {}
    for row in rows:
        root = row
        while isinstance(root.base, np.ndarray):
            root = root.base
        roots[id(root)] = root.nbytes
    return sum(roots.values())


@pytest.fixture(params=["brute", "indexed"])
def service(request, make_service, fitted_soft):
    if request.param == "indexed":
        fitted_soft.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                            refine=8, seed=0))
    try:
        yield make_service(batch_tile=4)
    finally:
        fitted_soft.detach_index()


def test_stale_rows_own_their_memory(service, fitted_soft):
    vertices = [int(v) for v in fitted_soft.vertex_ids]
    # fused batches (two tiles each, one ragged) fill the cache ...
    for start in range(0, len(vertices), 6):
        responses = service.handle_batch(
            [{"id": v, "vertex": v, "top_k": 2}
             for v in vertices[start:start + 6]])
        assert all(r["ok"] and r["tier"] == "full" for r in responses)
    # ... then lone re-queries replace all but one row of every batch
    for position, vertex in enumerate(vertices):
        if position % 6:
            assert service.handle({"id": 0, "vertex": vertex})["ok"]
    rows = [scores for scores, _ in service._stale.values()]
    assert len(rows) == len(vertices)
    assert reachable_bytes(rows) == sum(row.nbytes for row in rows)
    width = len(fitted_soft.images)
    assert all(row.shape == (width,) and row.dtype == np.float32
               for row in rows)
