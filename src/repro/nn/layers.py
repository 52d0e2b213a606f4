"""Layer and module abstractions.

A :class:`Module` owns parameters (:class:`~repro.autodiff.Tensor` objects
with ``requires_grad=True``) and implements ``forward``. :class:`Sequential`
chains modules. Only the layer types needed by the paper's tabular models
are provided: fully-connected layers and elementwise activations.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.autodiff import Tensor
from repro.nn.initializers import get_initializer


class Module:
    """Base class for neural modules."""

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def parameters(self) -> List[Tensor]:
        """Return the list of trainable tensors owned by this module."""
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> List[np.ndarray]:
        """Snapshot parameter values (copies, in ``parameters()`` order)."""
        return [param.data.copy() for param in self.parameters()]

    def load_state_dict(self, state: Iterable[np.ndarray]) -> None:
        """Restore parameter values from :meth:`state_dict` output."""
        params = self.parameters()
        state = list(state)
        if len(state) != len(params):
            raise ValueError(f"state has {len(state)} arrays, module has {len(params)} parameters")
        for param, value in zip(params, state):
            if param.data.shape != value.shape:
                raise ValueError(f"shape mismatch: {param.data.shape} vs {value.shape}")
            param.data = value.copy()


class Dense(Module):
    """Fully-connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    weight_init:
        Name of an initializer from :mod:`repro.nn.initializers`.
    bias:
        Whether to include the additive bias term.
    rng:
        Numpy random generator for reproducible initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_init: str = "xavier_uniform",
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        init = get_initializer(weight_init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init(in_features, out_features, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return Tensor.dense(x, self.weight, self.bias)

    def parameters(self) -> List[Tensor]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": lambda t: t.relu(),
    "leaky_relu": lambda t: t.leaky_relu(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "softplus": lambda t: t.softplus(),
    "linear": lambda t: t,
}


class Activation(Module):
    """Elementwise activation layer referenced by name."""

    def __init__(self, name: str):
        if name not in _ACTIVATIONS:
            raise KeyError(f"unknown activation {name!r}; choices: {sorted(_ACTIVATIONS)}")
        self.name = name
        self._func = _ACTIVATIONS[name]

    def forward(self, x: Tensor) -> Tensor:
        return self._func(x)


class Sequential(Module):
    """Chain of modules applied in order.

    A ``Dense`` directly followed by a ReLU ``Activation`` runs as one
    :meth:`Tensor.dense` node; every other module runs on its own.
    """

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        modules = self.modules
        i = 0
        while i < len(modules):
            module = modules[i]
            after = modules[i + 1] if i + 1 < len(modules) else None
            if (
                type(module) is Dense
                and type(after) is Activation
                and after.name == "relu"
            ):
                x = Tensor.dense(x, module.weight, module.bias, relu=True)
                i += 2
            else:
                x = module(x)
                i += 1
        return x

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

    def append(self, module: Module) -> None:
        self.modules.append(module)


def mlp(
    sizes: List[int],
    activation: str = "relu",
    output_activation: str = "linear",
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Build a plain MLP from a list of layer sizes.

    ``sizes = [in, h1, ..., out]`` produces ``Dense -> act -> ... -> Dense``
    with ``output_activation`` applied after the final layer.
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    rng = rng if rng is not None else np.random.default_rng()
    weight_init = "he_normal" if activation in ("relu", "leaky_relu") else "xavier_uniform"
    layers: List[Module] = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Dense(fan_in, fan_out, weight_init=weight_init, rng=rng))
        is_last = i == len(sizes) - 2
        name = output_activation if is_last else activation
        if name != "linear":
            layers.append(Activation(name))
    return Sequential(*layers)
