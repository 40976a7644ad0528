"""Golden reference for :mod:`repro.vision.image`'s renderer.

``render_concept`` and ``render_repository`` as they stood before the
repository was rendered batch-wide: one image at a time, each patch
painted, noised and clipped through its own small arrays.  Kept
outside ``src/`` as the oracle the batched renderer must equal — the
pixels ``np.array_equal``, and the generator left in the same state,
because callers keep drawing from it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datasets.world import COLOR_RGB, Concept
from repro.nn.init import SeedLike, rng_from
from repro.vision.image import CHANNELS, GRID, PATCH, SIDE, SyntheticImage

__all__ = ["render_concept", "render_repository"]


def _texture(color: int, rng: np.random.Generator) -> np.ndarray:
    """Per-color striped texture so colors differ beyond mean RGB."""
    base = np.zeros((PATCH, PATCH), dtype=np.float32)
    period = 2 + (color % 4)
    phase = int(rng.integers(period))
    base[(np.arange(PATCH) + phase) % period == 0, :] = 0.15
    return base


def render_concept(concept: Concept, rng: SeedLike = None,
                   noise: float = 0.08, occlusion_prob: float = 0.15) -> np.ndarray:
    """Render one noisy view of ``concept``.

    Each call produces a different "photo": background noise differs,
    attribute patches get jittered intensity, and with probability
    ``occlusion_prob`` one attribute patch is occluded (painted as
    background), mimicking view-dependent visibility.
    """
    rng = rng_from(rng)
    image = rng.uniform(0.35, 0.65, size=(SIDE, SIDE, CHANNELS)).astype(np.float32)
    items = concept.visual_items()
    occlude = -1
    if items and rng.random() < occlusion_prob:
        occlude = int(rng.integers(len(items)))
    for k, (part, color) in enumerate(items):
        if k == occlude:
            continue
        row, col = divmod(part, GRID)
        ys, xs = row * PATCH, col * PATCH
        rgb = COLOR_RGB[color] * float(rng.uniform(0.85, 1.15))
        block = np.clip(rgb, 0.0, 1.0)[None, None, :] * np.ones(
            (PATCH, PATCH, CHANNELS), dtype=np.float32)
        block += _texture(color, rng)[:, :, None]
        image[ys:ys + PATCH, xs:xs + PATCH] = np.clip(block, 0.0, 1.0)
    image += rng.normal(0.0, noise, size=image.shape).astype(np.float32)
    return np.clip(image, 0.0, 1.0)


def render_repository(concepts: Sequence[Concept], images_per_concept: int,
                      seed: SeedLike = 0, noise: float = 0.08) -> List[SyntheticImage]:
    """Render ``images_per_concept`` views of every concept.

    Returns a flat, shuffled image repository (the paper's I) with
    ground-truth concept provenance attached for evaluation.
    """
    rng = rng_from(seed)
    repository: List[SyntheticImage] = []
    image_id = 0
    for concept in concepts:
        for _ in range(images_per_concept):
            pixels = render_concept(concept, rng, noise=noise)
            repository.append(SyntheticImage(pixels, concept.index, image_id))
            image_id += 1
    order = rng.permutation(len(repository))
    return [repository[i] for i in order]
