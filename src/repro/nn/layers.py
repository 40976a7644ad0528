"""Neural-network module system: parameters, containers and basic layers.

A thin torch-like layer on top of the autodiff engine.  A
:class:`Module` discovers its parameters by walking its attributes, so
layers compose naturally; :meth:`Module.freeze` detaches a subtree from
training, which is how the reproduction freezes the CLIP image encoder
exactly as the paper does (§II-C).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from . import functional as F
from .init import SeedLike, normal, rng_from, xavier_uniform, zeros
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Embedding", "LayerNorm", "Dropout",
           "Sequential", "MLP"]


class Parameter(Tensor):
    """A tensor that is updated by optimizers (``requires_grad=True``)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and ``Module`` attributes in
    ``__init__`` and implement :meth:`forward`.  Instances are callable.
    """

    def __init__(self) -> None:
        self.training = True

    # -- forward ----------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- parameter discovery ------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters in this module subtree."""
        seen: set[int] = set()
        for param in self._walk_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def _walk_parameters(self) -> Iterator[Parameter]:
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                if value.requires_grad:
                    yield value
            elif isinstance(value, Module):
                yield from value._walk_parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._walk_parameters()
                    elif isinstance(item, Parameter) and item.requires_grad:
                        yield item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules, depth first."""
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- training state ------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def freeze(self) -> "Module":
        """Permanently exclude this subtree's parameters from training."""
        for module in self.modules():
            for value in module.__dict__.values():
                if isinstance(value, Parameter):
                    value.requires_grad = False
                elif isinstance(value, (list, tuple)):
                    for item in value:
                        if isinstance(item, Parameter):
                            item.requires_grad = False
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- (de)serialization -----------------------------------------------------
    def state_dict(self) -> dict:
        """Flat name → array mapping of every parameter (trainable or not)."""
        state: dict[str, np.ndarray] = {}
        self._collect_state("", state)
        return state

    def _collect_state(self, prefix: str, state: dict) -> None:
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                state[key] = value.data.copy()
            elif isinstance(value, Module):
                value._collect_state(key + ".", state)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect_state(f"{key}.{i}.", state)
                    elif isinstance(item, Parameter):
                        state[f"{key}.{i}"] = item.data.copy()

    def load_state_dict(self, state: dict) -> None:
        """Copy arrays from ``state`` into matching parameters in place."""
        own = {}
        self._collect_params("", own)
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for key, param in own.items():
            array = np.asarray(state[key], dtype=np.float32)
            if array.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {array.shape} vs {param.data.shape}")
            param.data = array.copy()

    def _collect_params(self, prefix: str, out: dict) -> None:
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                out[key] = value
            elif isinstance(value, Module):
                value._collect_params(key + ".", out)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect_params(f"{key}.{i}.", out)
                    elif isinstance(item, Parameter):
                        out[f"{key}.{i}"] = item


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-initialized weights."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: SeedLike = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to learned vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(normal((num_embeddings, dim), rng))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.min(initial=0) < 0 or (ids.size and ids.max() >= self.num_embeddings):
            raise IndexError("embedding id out of range")
        return self.weight[ids]


class LayerNorm(Module):
    """Layer normalization over the final feature axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.weight = Parameter(np.ones(dim, dtype=np.float32))
        self.bias = Parameter(zeros((dim,)))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout with its own generator for reproducibility."""

    def __init__(self, rate: float, rng: SeedLike = None) -> None:
        super().__init__()
        self.rate = rate
        self._rng = rng_from(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class _ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers."""

    def __init__(self, sizes: Iterable[int], rng: SeedLike = None,
                 bias: bool = True) -> None:
        super().__init__()
        rng = rng_from(rng)
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        layers: list[Module] = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(n_in, n_out, bias=bias, rng=rng))
            if i < len(sizes) - 2:
                layers.append(_ReLU())
        self.layers = layers

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
