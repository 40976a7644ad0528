"""Golden references for the fused autograd nodes of ``repro.nn``.

Each function here is the composition of :class:`~repro.nn.Tensor`
primitives that ``repro.nn`` shipped before its hot ops were fused into
single nodes (one graph node per primitive, a dozen per call).  They
are kept, outside ``src/``, as the oracle the fused nodes are tested
against: values and gradients of a fused node must be
``np.array_equal`` to these, in any graph it is placed in.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

__all__ = ["softmax", "log_softmax", "l2_normalize", "layer_norm", "gelu",
           "linear", "attend", "install"]

_EPS = 1e-8


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    norm = ((x * x).sum(axis=axis, keepdims=True) + _EPS).sqrt()
    return x / norm


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    return normed * weight + bias


def gelu(x: Tensor) -> Tensor:
    inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + inner.tanh())


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def attend(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
           mask: Optional[np.ndarray]) -> Tensor:
    batch, len_q, dim = q.shape
    len_k = k.shape[1]
    head_dim = dim // num_heads

    def split(x: Tensor, length: int) -> Tensor:
        return x.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q, len_q), split(k, len_k), split(v, len_k)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(head_dim))
    if mask is not None:
        bias = np.where(mask[:, None, None, :], 0.0, -1e9).astype(np.float32)
        scores = scores + Tensor(bias)
    weights = softmax(scores, axis=-1)
    mixed = weights @ vh
    return mixed.transpose(0, 2, 1, 3).reshape(batch, len_q, dim)


def install(monkeypatch) -> None:
    """Swap every fused op of ``repro.nn`` for its composition here, so
    a whole model (pre-training, ``CrossEMPlus.fit``) runs on the
    primitive graph the fused nodes must reproduce."""
    from repro.nn import attention, functional

    for name in ("softmax", "log_softmax", "l2_normalize", "layer_norm",
                 "gelu", "linear"):
        monkeypatch.setattr(functional, name, globals()[name])
    monkeypatch.setattr(attention, "_attend", attend)
