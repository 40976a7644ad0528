"""Transformer components: multi-head attention, blocks and encoders.

These are the building blocks for the CLIP text tower (12-layer
transformer in the paper, miniaturized here), the ViT-style image tower,
and the fusion-encoder baselines (VisualBERT/ViLBERT-style).  Shapes
follow the convention ``(batch, sequence, dim)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .init import SeedLike, rng_from
from .layers import Dropout, LayerNorm, Linear, Module
from .tensor import Tensor, _matmul_backward

__all__ = ["MultiHeadSelfAttention", "CrossAttention", "TransformerBlock",
           "TransformerEncoder", "sinusoidal_positions"]


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic fixed sinusoidal positional encodings, shape (length, dim)."""
    positions = np.arange(length)[:, None]
    dims = np.arange(dim)[None, :]
    angles = positions / np.power(10000.0, (2 * (dims // 2)) / dim)
    encoding = np.zeros((length, dim), dtype=np.float32)
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


def _attend(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
            mask: Optional[np.ndarray]) -> Tensor:
    """Scaled dot-product attention with head splitting, as one
    autograd node (split, scaled QK^T, mask, softmax, .V, merge).

    ``q`` has shape (B, Lq, D); ``k``/``v`` have shape (B, Lk, D).
    ``mask`` is a boolean array of shape (B, Lk) marking *valid* keys.
    """
    batch, len_q, dim = q.shape
    len_k = k.shape[1]
    head_dim = dim // num_heads
    scale = np.float32(1.0 / np.sqrt(head_dim))

    def split(x: np.ndarray, length: int) -> np.ndarray:
        return x.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray, length: int) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(batch, length, dim)

    qh, vh = split(q.data, len_q), split(v.data, len_k)
    kh_t = split(k.data, len_k).transpose(0, 1, 3, 2)
    scores = (qh @ kh_t) * scale
    if mask is not None:
        scores = scores + np.where(mask[:, None, None, :], 0.0,
                                   -1e9).astype(np.float32)
    weights, exps, total = F._softmax_forward(scores, -1)
    out = merge(weights @ vh, len_q)

    def backward(grad: np.ndarray) -> None:
        # Gradients reach every matmul as C-contiguous arrays and the
        # operands keep the strides of the forward views, as in the
        # primitive graph: BLAS then sums in the same order.
        g_mixed = np.ascontiguousarray(split(grad, len_q))
        g_weights, g_vh = _matmul_backward(
            weights, vh, g_mixed, q.requires_grad or k.requires_grad,
            v.requires_grad)
        if g_vh is not None:
            v._accumulate(merge(g_vh, len_k))
        if g_weights is None:
            return
        g_scores = F._softmax_backward(exps, total, g_weights) * scale
        g_qh, g_kh_t = _matmul_backward(qh, kh_t, g_scores, q.requires_grad,
                                        k.requires_grad)
        if g_qh is not None:
            q._accumulate(merge(g_qh, len_q))
        if g_kh_t is not None:
            k._accumulate(merge(g_kh_t.transpose(0, 1, 3, 2), len_k))

    return Tensor._make(
        out, (q, k, v), backward,
        saved_bytes=weights.nbytes + exps.nbytes + total.nbytes)


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention with a key-padding mask."""

    def __init__(self, dim: int, num_heads: int, rng: SeedLike = None) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng_from(rng)
        self.num_heads = num_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        mixed = _attend(self.query(x), self.key(x), self.value(x),
                        self.num_heads, mask)
        return self.out(mixed)


class CrossAttention(Module):
    """Attention from a query sequence onto a separate context sequence.

    Used by the ViLBERT-style two-stream baseline (co-attention) and the
    IMRAM-style recurrent matching baseline.
    """

    def __init__(self, dim: int, num_heads: int, rng: SeedLike = None) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng_from(rng)
        self.num_heads = num_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, context: Tensor,
                context_mask: Optional[np.ndarray] = None) -> Tensor:
        mixed = _attend(self.query(x), self.key(context), self.value(context),
                        self.num_heads, context_mask)
        return self.out(mixed)


class TransformerBlock(Module):
    """Pre-norm transformer block: attention + GELU MLP, both residual."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: float = 2.0,
                 dropout: float = 0.0, rng: SeedLike = None) -> None:
        super().__init__()
        rng = rng_from(rng)
        hidden = int(dim * mlp_ratio)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.fc2 = Linear(hidden, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.attn(self.norm1(x), mask)
        x = x + self.drop(self.fc2(F.gelu(self.fc1(self.norm2(x)))))
        return x


class TransformerEncoder(Module):
    """A stack of :class:`TransformerBlock` with a final layer norm."""

    def __init__(self, dim: int, depth: int, num_heads: int,
                 mlp_ratio: float = 2.0, dropout: float = 0.0,
                 rng: SeedLike = None) -> None:
        super().__init__()
        rng = rng_from(rng)
        self.blocks = [TransformerBlock(dim, num_heads, mlp_ratio, dropout, rng)
                       for _ in range(depth)]
        self.final_norm = LayerNorm(dim)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        for block in self.blocks:
            x = block(x, mask)
        return self.final_norm(x)
