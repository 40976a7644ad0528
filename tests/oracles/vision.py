"""Golden reference for the batched patch-feature extractor.

``features_batch_reference`` is the per-image loop that
``PatchFeatureExtractor.features_batch`` replaced with chunked batched
projections.  Kept outside ``src/`` as the oracle the batched form must
equal, ``np.array_equal``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["features_batch_reference"]


def features_batch_reference(extractor, images: Sequence) -> np.ndarray:
    """``(num_images, num_patches, dim)`` features, one image at a time."""
    if not images:
        return np.zeros((0, extractor.spec.num_patches, extractor.dim),
                        dtype=np.float32)
    return np.stack([extractor.features(img.pixels) for img in images])
