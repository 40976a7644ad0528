"""Vision feature extractors.

Two models live here, mirroring the paper's two distinct uses of vision
backbones:

* :class:`PatchFeatureExtractor` — the pre-trained **ResNet-18**
  stand-in used by PCP mini-batch generation (Alg. 2, line 1) to embed
  image patches *without fine-tuning*.  It computes fixed local
  statistics (mean/std RGB, gradient energy) followed by a deterministic
  random projection, which is exactly the role frozen conv features play.
* :class:`VisionEncoder` — the trainable **ViT-style** image tower of
  MiniCLIP: linear patch embedding + CLS token + transformer encoder,
  pre-trained contrastively and then frozen inside CrossEM (§II-C).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from ..nn.init import SeedLike, rng_from
from .image import ImageSpec, SyntheticImage
from .patches import patch_grid

__all__ = ["PatchFeatureExtractor", "VisionEncoder"]


def _patch_statistics(patches: np.ndarray) -> np.ndarray:
    """Hand-crafted local statistics per patch.

    ``patches``: (..., patch, patch, C) -> features (..., 8):
    mean RGB (3), std RGB (3), horizontal and vertical gradient energy.
    """
    mean = patches.mean(axis=(-3, -2))
    std = patches.std(axis=(-3, -2))
    grad_h = np.abs(np.diff(patches, axis=-2)).mean(axis=(-3, -2, -1), keepdims=False)
    grad_v = np.abs(np.diff(patches, axis=-3)).mean(axis=(-3, -2, -1), keepdims=False)
    return np.concatenate(
        [mean, std, grad_h[..., None], grad_v[..., None]], axis=-1).astype(np.float32)


class PatchFeatureExtractor:
    """Frozen patch featurizer (the paper's ResNet-18 backbone role).

    Output features additionally encode the patch's grid position as a
    one-hot block, because convolutional features of a full image are
    spatially indexed — a patch feature at position *k* is
    distinguishable from the same texture elsewhere.
    """

    def __init__(self, dim: int = 32, spec: ImageSpec = ImageSpec(),
                 seed: SeedLike = 7) -> None:
        self.spec = spec
        self.dim = dim
        rng = rng_from(seed)
        raw_dim = 8 + spec.num_patches  # statistics + position one-hot
        self._projection = (rng.standard_normal((raw_dim, dim))
                            / np.sqrt(raw_dim)).astype(np.float32)

    def raw_features(self, pixels: np.ndarray) -> np.ndarray:
        """Unprojected per-patch features of one image,
        ``(num_patches, 8 + num_patches)``."""
        patches = patch_grid(pixels, self.spec)
        stats = _patch_statistics(patches)
        position = np.eye(self.spec.num_patches, dtype=np.float32)
        return np.concatenate([stats, position], axis=-1)

    def features(self, pixels: np.ndarray) -> np.ndarray:
        """Projected per-patch features of one image, ``(num_patches, dim)``."""
        return self.raw_features(pixels) @ self._projection

    def features_pixels_batch(self, pixels_batch: np.ndarray) -> np.ndarray:
        """Projected features for stacked pixels ``(B, side, side, C)``,
        returning ``(B, num_patches, dim)``.

        The per-patch statistics are computed over the whole batch at
        once and projected through a single GEMM; every output element
        matches the per-image :meth:`features` path bit for bit (the
        statistics reduce within one patch, and the projection is a
        row-sliceable matmul).
        """
        spec = self.spec
        patches = np.stack([patch_grid(p, spec) for p in pixels_batch])
        stats = _patch_statistics(patches)  # (B, P, 8)
        position = np.broadcast_to(np.eye(spec.num_patches, dtype=np.float32),
                                   (len(pixels_batch), spec.num_patches,
                                    spec.num_patches))
        raw = np.concatenate([stats, position], axis=-1)
        flat = raw.reshape(-1, raw.shape[-1]) @ self._projection
        return flat.reshape(len(pixels_batch), spec.num_patches, self.dim)

    def features_batch(self, images: Sequence[SyntheticImage],
                       chunk: int = 256) -> np.ndarray:
        """Features for a repository, ``(num_images, num_patches, dim)``."""
        if not images:
            return np.zeros((0, self.spec.num_patches, self.dim), dtype=np.float32)
        from .pipeline import chunked_encode
        return chunked_encode(
            lambda s, e: self.features_pixels_batch(
                np.stack([img.pixels for img in images[s:e]])),
            len(images), chunk=chunk, name="patch_features")


class VisionEncoder(nn.Module):
    """ViT-style image tower: patch embedding + CLS + transformer.

    ``forward`` takes raw pixel batches ``(B, side, side, C)`` and
    returns projected embeddings ``(B, embed_dim)``.
    """

    def __init__(self, embed_dim: int = 64, width: int = 48, depth: int = 2,
                 num_heads: int = 4, spec: ImageSpec = ImageSpec(),
                 rng: SeedLike = None) -> None:
        super().__init__()
        rng = rng_from(rng)
        self.spec = spec
        patch_pixels = spec.patch * spec.patch * spec.channels
        self.patch_embed = nn.Linear(patch_pixels, width, rng=rng)
        self.cls_token = nn.Parameter(nn.normal((1, 1, width), rng))
        self.positions = nn.Parameter(nn.normal((1, spec.num_patches + 1, width), rng))
        self.encoder = nn.TransformerEncoder(width, depth, num_heads, rng=rng)
        self.project = nn.Linear(width, embed_dim, bias=False, rng=rng)

    def forward(self, pixels: np.ndarray) -> nn.Tensor:
        pixels = np.asarray(pixels, dtype=np.float32)
        if pixels.ndim == 3:
            pixels = pixels[None]
        batch = pixels.shape[0]
        flat = np.stack([patch_grid(p, self.spec).reshape(self.spec.num_patches, -1)
                         for p in pixels])
        tokens = self.patch_embed(nn.Tensor(flat))
        cls = nn.concat([self.cls_token] * batch, axis=0)
        sequence = nn.concat([cls, tokens], axis=1) + self.positions
        encoded = self.encoder(sequence)
        return self.project(encoded[:, 0, :])

    def encode_images(self, images: Sequence[SyntheticImage]) -> nn.Tensor:
        """Convenience wrapper over a repository slice."""
        return self.forward(np.stack([img.pixels for img in images]))
