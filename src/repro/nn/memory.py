"""Accounting of tensor memory, standing in for GPU memory monitoring.

The paper reports the maximum GPU memory occupied while training each
method (measured with NVIDIA Nsight).  This substrate has no GPU, so we
meter the same quantity at the level our engine controls: the total bytes
of live ``Tensor`` buffers (parameters, activations and gradients).  The
tracker observes every allocation made while a :class:`MemoryTracker`
context is active and records the high-water mark, which preserves the
paper's *relative* comparisons — a method that materializes more candidate
pairs or larger activation graphs reports a higher peak.
"""

from __future__ import annotations

import weakref

__all__ = ["MemoryTracker", "current_tracker"]

_ACTIVE_TRACKERS: list["MemoryTracker"] = []


class _Entry(weakref.ref):
    """Ledger row: a weak reference to a live tensor and the bytes it
    was charged.  The tracker is the row's death callback."""

    __slots__ = ("nbytes",)


class MemoryTracker:
    """Record the peak number of live tensor bytes inside a ``with`` block.

    Usage::

        tracker = MemoryTracker()
        with tracker:
            model.train_epoch(...)
        print(tracker.peak_bytes, tracker.peak_gb)

    Trackers nest; every active tracker observes every allocation.  Buffers
    are released from the ledger when the owning tensor is garbage
    collected, so the peak reflects simultaneous residency rather than
    cumulative traffic.  The ledger holds one weak entry per *live*
    tensor and drops it on collection, so a tracker kept around after a
    long fit retains nothing of the tensors it watched.
    """

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self._live: set[_Entry] = set()

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "MemoryTracker":
        _ACTIVE_TRACKERS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TRACKERS.remove(self)

    # -- ledger ----------------------------------------------------------
    def _on_alloc(self, owner: object, nbytes: int, transient: int) -> None:
        self.current_bytes += nbytes
        if self.current_bytes + transient > self.peak_bytes:
            self.peak_bytes = self.current_bytes + transient
        entry = _Entry(owner, self._on_free)
        entry.nbytes = nbytes
        self._live.add(entry)

    def _on_free(self, entry: "_Entry") -> None:
        self._live.discard(entry)
        self.current_bytes -= entry.nbytes

    @property
    def live_count(self) -> int:
        """Tensors observed by this tracker that are still alive."""
        return len(self._live)

    # -- reporting --------------------------------------------------------
    @property
    def peak_mb(self) -> float:
        """Peak live bytes expressed in mebibytes."""
        return self.peak_bytes / (1024.0**2)

    @property
    def peak_gb(self) -> float:
        """Peak live bytes expressed in gibibytes."""
        return self.peak_bytes / (1024.0**3)


def current_tracker() -> list["MemoryTracker"]:
    """Return the stack of active trackers (innermost last)."""
    return _ACTIVE_TRACKERS


def observe_allocation(owner: object, nbytes: int, transient: int = 0) -> None:
    """Report ``nbytes`` of fresh buffers kept alive by ``owner`` to
    every active tracker: a tensor's own array plus whatever arrays its
    backward closure saved.  ``transient`` bytes exist right now but
    die when the op returns (the would-be saved arrays of a node that
    records no closure): they count towards the peak, not the ledger.
    Called on every tensor creation; cheap no-op when no tracker is
    active."""
    for tracker in _ACTIVE_TRACKERS:
        tracker._on_alloc(owner, nbytes, transient)
