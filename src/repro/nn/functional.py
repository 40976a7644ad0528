"""Differentiable functional building blocks used across the library.

The operations the paper's models need: numerically stable softmax and
log-softmax, cross-entropy, cosine similarity (the ``sim`` function of
Definition 1), L2 normalization, layer normalization, the affine map,
dropout and GELU.

The ops every tower runs thousands of times per epoch (``layer_norm``,
``gelu``, ``softmax``, ``log_softmax``, ``l2_normalize``, ``linear``)
are *fused*: each records a single autograd node whose forward and
backward are plain numpy, instead of a dozen
:class:`~repro.nn.tensor.Tensor` primitives.  Both directions evaluate
the expressions of the primitive composition they replaced, in its
order and in its association (see :meth:`Tensor._settle`), so values
and gradients are bit-identical to it; ``tests/oracles/nn_composite.py``
holds those compositions as golden references.  Each node tells the
memory meter how many bytes its backward closure saved (DESIGN.md,
"Fused autodiff nodes").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .init import SeedLike, rng_from
from .tensor import Tensor, _matmul_backward, _unbroadcast, as_tensor

__all__ = [
    "softmax", "log_softmax", "cross_entropy", "l2_normalize",
    "cosine_similarity_matrix", "layer_norm", "linear", "dropout", "gelu",
    "relu",
]

_EPS = np.float32(1e-8)
_GELU_SCALE = np.float32(0.7978845608028654)
_GELU_CUBIC = np.float32(0.044715)
_HALF = np.float32(0.5)
_ONE = np.float32(1.0)


def _softmax_forward(data: np.ndarray, axis: int) -> tuple:
    """``(probabilities, exponentials, their sums)`` along ``axis``."""
    exps = np.exp(data - data.max(axis=axis, keepdims=True))
    total = exps.sum(axis=axis, keepdims=True)
    return exps / total, exps, total


def _softmax_backward(exps: np.ndarray, total: np.ndarray,
                      grad: np.ndarray) -> np.ndarray:
    """Gradient of ``exps / total`` with respect to the logits."""
    g_total = _unbroadcast(-grad * exps / (total**2), total.shape)
    return (grad / total + g_total) * exps


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    probs, exps, total = _softmax_forward(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(_softmax_backward(exps, total, grad))

    return Tensor._make(probs, (x,), backward,
                        saved_bytes=exps.nbytes + total.nbytes)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=axis, keepdims=True)
    out = shifted - np.log(total)

    def backward(grad: np.ndarray) -> None:
        g_total = -_unbroadcast(grad, total.shape) / total
        x._accumulate(grad + g_total * exps)

    return Tensor._make(out, (x,), backward,
                        saved_bytes=exps.nbytes + total.nbytes)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between row logits and integer class targets."""
    logp = log_softmax(logits, axis=-1)
    rows = np.arange(len(targets))
    picked = logp[rows, np.asarray(targets)]
    return -picked.mean()


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Project rows of ``x`` onto the unit sphere (safe at zero)."""
    x = as_tensor(x)
    data = x.data
    squared_norm = (data * data).sum(axis=axis, keepdims=True) + _EPS
    norm = squared_norm**0.5
    out = data / norm

    def backward(grad: np.ndarray) -> None:
        # two deposits, as from the primitives x / norm and x * x
        x._accumulate(grad / norm)
        x._settle()
        g_norm = _unbroadcast(-grad * data / (norm**2), norm.shape)
        g_square = (g_norm * 0.5 * squared_norm ** (0.5 - 1)) * data
        x._accumulate(g_square)  # x * x: once per operand
        x._accumulate(g_square)

    return Tensor._make(out, (x,), backward,
                        saved_bytes=squared_norm.nbytes + norm.nbytes)


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity: rows of ``a`` against rows of ``b``.

    This is the similarity function ``sim`` of Definition 1 in the paper,
    vectorized over candidate pairs.  Returns shape ``(len(a), len(b))``.
    """
    return l2_normalize(a) @ l2_normalize(b).transpose()


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    data = x.data
    inv_count = np.float32(1.0 / data.shape[-1])
    centered = data - data.sum(axis=-1, keepdims=True) * inv_count
    shifted_var = np.float32(eps) \
        + (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    std = shifted_var**0.5
    normed = centered / std
    out = normed * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(grad * normed, weight.shape))
        if not x.requires_grad:
            return
        g_normed = _unbroadcast(grad * weight.data, normed.shape)
        g_std = _unbroadcast(-g_normed * centered / (std**2), std.shape)
        g_var = g_std * 0.5 * shifted_var ** (0.5 - 1) * inv_count
        g_square = g_var * centered
        g_centered = g_normed / std + (g_square + g_square)
        # two deposits, as from the primitives x - mean and mean(x)
        x._accumulate(g_centered)
        x._settle()
        g_mean = -_unbroadcast(g_centered, std.shape) * inv_count
        x._accumulate(np.broadcast_to(g_mean, data.shape))

    return Tensor._make(out, (x, weight, bias), backward,
                        saved_bytes=centered.nbytes + normed.nbytes
                        + shifted_var.nbytes + std.nbytes)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` over the last axis of ``x``."""
    x, weight = as_tensor(x), as_tensor(weight)
    if bias is None:
        return x @ weight
    bias = as_tensor(bias)
    data, w = x.data, weight.data

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        grad_x, grad_w = _matmul_backward(data, w, grad, x.requires_grad,
                                          weight.requires_grad)
        if grad_x is not None:
            x._accumulate(grad_x)
        if grad_w is not None:
            weight._accumulate(grad_w)

    return Tensor._make(data @ w + bias.data, (x, weight, bias), backward)


def dropout(x: Tensor, rate: float, rng: SeedLike = None, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return x
    rng = rng_from(rng)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    return x * Tensor(mask)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of the Gaussian error linear unit."""
    x = as_tensor(x)
    data = x.data
    tanh = np.tanh((data + data * data * data * _GELU_CUBIC) * _GELU_SCALE)
    out = data * _HALF * (tanh + _ONE)

    def backward(grad: np.ndarray) -> None:
        # x feeds four primitives of the composition (0.5 * x, the sum
        # under the tanh, x^2 * x and x * x): four deposits, in the order
        # the primitive graph is walked.
        x._accumulate(grad * (tanh + _ONE) * _HALF)
        x._settle()
        g_sum = grad * (data * _HALF) * (1.0 - tanh**2) * _GELU_SCALE
        x._accumulate(g_sum)
        x._settle()
        g_cube = g_sum * _GELU_CUBIC
        x._accumulate(g_cube * (data * data))
        x._settle()
        g_square = g_cube * data * data
        x._accumulate(g_square)  # x * x: once per operand
        x._accumulate(g_square)

    return Tensor._make(out, (x,), backward, saved_bytes=tanh.nbytes)


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()
