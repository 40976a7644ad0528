"""Synthetic image substrate.

Images in the paper are unstructured pixel matrices whose *patches*
carry local properties ("white crown", "black tail" — Fig. 6).  The
renderer reproduces exactly that structure: a 24x24 RGB image divided
into a 3x3 patch grid where part slot *i* is painted into patch *i*
with its color's RGB signature plus a per-color texture, while
unassigned patches hold background noise.  Patch features therefore
genuinely encode the entity's visual attributes, which is the property
PCP mini-batch generation (§IV-A) and negative sampling (§IV-B) exploit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from ..datasets.world import COLOR_RGB, Concept
from ..nn.init import SeedLike, rng_from

__all__ = ["ImageSpec", "SyntheticImage", "render_concept", "render_repository"]

#: Image geometry: GRID x GRID patches of PATCH x PATCH pixels, 3 channels.
GRID = 3
PATCH = 8
SIDE = GRID * PATCH
CHANNELS = 3


@dataclasses.dataclass(frozen=True)
class ImageSpec:
    """Geometry constants exposed for encoders and tests."""

    grid: int = GRID
    patch: int = PATCH
    channels: int = CHANNELS

    @property
    def side(self) -> int:
        return self.grid * self.patch

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid


@dataclasses.dataclass(frozen=True)
class SyntheticImage:
    """An image plus its provenance (which concept it depicts)."""

    pixels: np.ndarray  # (SIDE, SIDE, 3) float32 in [0, 1]
    concept_index: int
    image_id: int


#: chance that one attribute patch of a repository view is occluded
OCCLUSION_PROB = 0.15
#: images per whole-array paint / noise / clip pass: bounds the float32
#: noise buffer a pass holds (1,024 views are 7 MB)
RENDER_BLOCK = 1024


def _paint(block: np.ndarray, paints: List[Tuple[int, int, int, float, int]]) -> None:
    """Paint every ``(view, part, color, scale, phase)`` attribute patch
    into ``block`` at once.

    A patch is its color's RGB signature times the jitter ``scale``,
    clipped, plus a per-color striped texture (rows where ``(y + phase)
    % period == 0`` gain 0.15, so colors differ beyond mean RGB),
    clipped again.  Every step is the float32 arithmetic one patch at a
    time would do: NEP 50 makes ``float32 * python float`` a float32
    multiply, hence the cast of the scales first."""
    view, part, color, scale, phase = (np.asarray(col) for col in zip(*paints))
    rgb = np.clip(COLOR_RGB[color] * scale.astype(np.float32)[:, None],
                  0.0, 1.0)
    period = 2 + color % 4
    stripe = (np.arange(PATCH) + phase[:, None]) % period[:, None] == 0
    texture = np.where(stripe, np.float32(0.15), np.float32(0.0))
    rows = np.clip(rgb[:, None, :] + texture[:, :, None], 0.0, 1.0)
    grid = block.reshape(len(block), GRID, PATCH, GRID, PATCH, CHANNELS)
    grid[view, part // GRID, :, part % GRID, :, :] = rows[:, :, None, :]


def _render_views(items: Sequence[List[Tuple[int, int]]],
                  rng: np.random.Generator, noise: float,
                  occlusion_prob: float) -> np.ndarray:
    """``(len(items), SIDE, SIDE, CHANNELS)`` float32: one noisy view per
    entry of ``items`` (a concept's sorted ``(part, color)`` pairs).

    Each view draws from ``rng`` in one fixed order — background,
    occlusion, then per painted patch its jitter and texture phase,
    then sensor noise — so a view is the same whether rendered alone or
    in a batch, and the generator ends in the same state.  Painting,
    noising and clipping then run as whole-array ops per block of
    views."""
    shape = (SIDE, SIDE, CHANNELS)
    views = np.empty((len(items),) + shape, dtype=np.float32)
    for start in range(0, len(items), RENDER_BLOCK):
        block = views[start:start + RENDER_BLOCK]
        jitter = np.empty_like(block)
        paints: List[Tuple[int, int, int, float, int]] = []
        for view, visual in enumerate(items[start:start + RENDER_BLOCK]):
            block[view] = rng.uniform(0.35, 0.65, size=shape)
            occlude = -1
            if visual and rng.random() < occlusion_prob:
                occlude = int(rng.integers(len(visual)))
            for k, (part, color) in enumerate(visual):
                if k == occlude:
                    continue
                scale = rng.uniform(0.85, 1.15)
                phase = int(rng.integers(2 + color % 4))
                paints.append((view, part, color, scale, phase))
            jitter[view] = rng.normal(0.0, noise, size=shape)
        if paints:
            _paint(block, paints)
        block += jitter
        np.clip(block, 0.0, 1.0, out=block)
    return views


def render_concept(concept: Concept, rng: SeedLike = None,
                   noise: float = 0.08,
                   occlusion_prob: float = OCCLUSION_PROB) -> np.ndarray:
    """Render one noisy view of ``concept``.

    Each call produces a different "photo": background noise differs,
    attribute patches get jittered intensity, and with probability
    ``occlusion_prob`` one attribute patch is occluded (painted as
    background), mimicking view-dependent visibility.
    """
    return _render_views([concept.visual_items()], rng_from(rng), noise,
                         occlusion_prob)[0]


def render_repository(concepts: Sequence[Concept], images_per_concept: int,
                      seed: SeedLike = 0, noise: float = 0.08) -> List[SyntheticImage]:
    """Render ``images_per_concept`` views of every concept.

    Returns a flat, shuffled image repository (the paper's I) with
    ground-truth concept provenance attached for evaluation.  Views are
    rendered batch-wide, bit-identical to one :func:`render_concept`
    call per image from the same generator.
    """
    rng = rng_from(seed)
    depicted = [concept for concept in concepts
                for _ in range(images_per_concept)]
    visuals = [concept.visual_items() for concept in concepts]
    pixels = _render_views([visual for visual in visuals
                            for _ in range(images_per_concept)],
                           rng, noise, OCCLUSION_PROB)
    repository = [SyntheticImage(pixels[image_id], concept.index, image_id)
                  for image_id, concept in enumerate(depicted)]
    order = rng.permutation(len(repository))
    return [repository[i] for i in order]
