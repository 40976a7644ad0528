"""The benchmark's in-memory spans.

Recorded from the benchmark's own files, around the calls into each
layer of the program; spans inside ``src/`` are a later change.  A span
is (name, start, end, parent, request id); nothing is written until the
run ends.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanRecorder", "self_times"]


class SpanRecorder:
    """Collects spans while ``enabled``; a disabled recorder costs one
    attribute read per call site, so the same replay code runs traced
    and untraced and the difference is the tracing overhead."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        index = len(self.spans)
        row = {"id": index, "name": name, "parent": parent,
               "request": request, "start": time.perf_counter(), "end": None}
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}))


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Seconds of self time per span id: duration minus the union of
    the intervals its direct children cover (children may overlap or,
    through clock granularity, stick out of the parent; both are
    clipped)."""
    children: Dict[int, List[dict]] = {}
    for row in spans:
        if row["parent"] is not None:
            children.setdefault(row["parent"], []).append(row)
    result: Dict[int, float] = {}
    for row in spans:
        covered = 0.0
        cursor = row["start"]
        for child in sorted(children.get(row["id"], ()),
                            key=lambda c: c["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], row["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[row["id"]] = (row["end"] - row["start"]) - covered
    return result
