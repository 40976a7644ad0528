"""Reverse-mode automatic differentiation over numpy arrays.

This module is the lowest layer of the deep-learning substrate that the
CrossEM reproduction is built on (the paper uses PyTorch; this engine
provides the same gradient semantics on CPU).  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` on a scalar result propagates gradients to every
tensor created with ``requires_grad=True``.

Design notes
------------
* Arrays are stored as ``float32`` by default, matching the precision the
  paper's models train in and keeping the memory meter realistic.
* Broadcasting follows numpy semantics; gradients of broadcast operands
  are reduced back to the operand shape by :func:`_unbroadcast`.
* The graph is a DAG of ``Tensor`` nodes; ``backward`` runs a topological
  sort and accumulates gradients with ``+=`` so shared subexpressions are
  handled correctly.
* Gradients reach an interior node in groups, one per consumer closure,
  each summed before it joins the rest (:meth:`Tensor._settle`).  The
  fused nodes in ``functional`` and ``attention`` stand for several
  primitives each and deposit in the primitives' groups, so their
  gradients keep the primitive graph's float association bit for bit.
* ``no_grad`` disables graph recording, used for frozen encoders (the
  paper freezes the CLIP image tower and contrastive head).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .memory import observe_allocation

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor", "concat", "stack"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = [True]
_FLOAT32 = np.dtype(np.float32)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED[-1]


def _coerce(data) -> np.ndarray:
    """``data`` as an array in the engine's storage dtype: integers,
    booleans and float64 become float32, other floats are kept."""
    arr = np.asarray(data)
    if arr.dtype.kind in "iub" or arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Floating inputs are stored as
        ``float32`` unless they already carry another float dtype.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_staged", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = _coerce(data)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self._staged: Optional[np.ndarray] = None
        observe_allocation(self, arr.nbytes)

    # -- construction helpers --------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None],
              saved_bytes: int = 0) -> "Tensor":
        """Record one graph node over ``data``.

        ``saved_bytes`` is the size of the arrays ``backward`` keeps
        alive beyond ``data`` and the parents' own buffers.  The memory
        meter is charged for them as long as the node lives when the
        closure is retained, and for this instant only when it is not.
        Float32 arrays, which is what every op produces from float32
        operands, skip the constructor's coercion.
        """
        if type(data) is not np.ndarray or data.dtype is not _FLOAT32:
            data = _coerce(data)  # e.g. the numpy scalar of a full reduction
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out._staged = None
        if _GRAD_ENABLED[-1]:
            for parent in parents:
                if parent.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
                    observe_allocation(out, data.nbytes + saved_bytes)
                    return out
        observe_allocation(out, data.nbytes, saved_bytes)
        return out

    # -- basic protocol ----------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(as_tensor(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            grad_a, grad_b = _matmul_backward(
                a, b, grad, self.requires_grad, other.requires_grad)
            if grad_a is not None:
                self._accumulate(grad_a)
            if grad_b is not None:
                other._accumulate(grad_b)

        return Tensor._make(a @ b, (self, other), backward)

    # -- elementwise nonlinearities -----------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self.__pow__(0.5)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # -- reductions -----------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            out_full = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            mask = self.data == out_full
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    # -- shape manipulation ------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(old_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # -- graph traversal -------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _settle(self) -> None:
        """Close the group of gradients deposited on this interior node.

        While a node's backward closure runs, its deposits on a parent
        add up in ``parent.grad``; settling moves that sum onto what
        earlier consumers of the parent staged.  :meth:`backward`
        settles every parent after each closure, so one closure is one
        group.  A fused closure that stands for several primitive nodes
        settles between the deposits those nodes would have made, which
        keeps the float association, and so every bit of the result,
        what the primitive graph produced.  Leaves have nothing to
        stage: their ``.grad`` is the running total.
        """
        if self._backward is not None and self.grad is not None:
            self._staged = self.grad if self._staged is None \
                else self._staged + self.grad
            self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones, which requires this tensor to be a
        scalar (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self._backward is None:
            if self.requires_grad:
                self._accumulate(grad)
            return
        # Topological order via iterative DFS.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        # Seed and propagate in reverse topological order.  Closures
        # deposit into their parents' ``.grad``: final for leaves, staged
        # for interior nodes until their own turn comes.
        self._staged = grad
        try:
            for node in reversed(order):
                node_grad, node._staged = node._staged, None
                if node_grad is None:
                    continue
                node._backward(node_grad)
                for parent in node._parents:
                    parent._settle()
        finally:
            for node in order:  # a closure that raised leaves nothing behind
                node._staged = None

    def detach_graph(self) -> None:
        """Drop references to parents so the graph can be collected."""
        self._parents = ()
        self._backward = None


def _matmul_backward(a: np.ndarray, b: np.ndarray, grad: np.ndarray,
                     want_a: bool, want_b: bool) -> tuple:
    """Gradients of ``a @ b`` with respect to ``a`` and ``b``, each
    reduced to its operand's shape; ``None`` where not wanted."""
    grad = np.asarray(grad)
    grad_a = grad_b = None
    if a.ndim == 1 and b.ndim == 1:
        grad_a, grad_b = grad * b, grad * a
    elif a.ndim == 1:
        # (k,) @ (..., k, n) -> (..., n)
        if want_a:
            grad_a = grad[..., None, :] @ np.swapaxes(b, -1, -2)
            grad_a = grad_a.reshape(grad.shape[:-1] + (a.shape[0],))
        if want_b:
            grad_b = a[:, None] * grad[..., None, :]
    elif b.ndim == 1:
        # (..., m, k) @ (k,) -> (..., m)
        if want_a:
            grad_a = grad[..., :, None] * b
        if want_b:
            grad_b = np.swapaxes(a, -1, -2) @ grad[..., None]
            grad_b = grad_b.reshape(grad.shape[:-1] + (b.shape[0],))
    else:
        if want_a:
            grad_a = grad @ np.swapaxes(b, -1, -2)
        if want_b:
            grad_b = np.swapaxes(a, -1, -2) @ grad
    return (_unbroadcast(np.asarray(grad_a), a.shape) if want_a else None,
            _unbroadcast(np.asarray(grad_b), b.shape) if want_b else None)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(out_data, tensors, backward)
