"""Dense layers, activations and containers for the NumPy NN substrate.

Each layer implements an explicit ``forward`` that caches whatever the
matching ``backward`` needs.  Gradients are *accumulated* into
``Parameter.grad`` (cleared by the optimiser's ``zero_grad``), which
matches PyTorch semantics and keeps the local-training loop familiar.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .init import kaiming_uniform, zeros
from .module import Module, Parameter, seeded_rng

__all__ = ["Linear", "ReLU", "Flatten", "Dropout", "Sequential"]


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 seed: Optional[int] = None):
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        rng = seeded_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.weight.value.T
        if self.bias is not None:
            out += self.bias.value  # in place: the matmul result is fresh
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        self.weight.grad += grad_output.T @ x
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            # inference needs no backward mask, and np.maximum matches the
            # masked select for all finite inputs; NaN activations (a model
            # diverged in training) propagate here instead of flushing to 0,
            # either way yielding meaningless predictions
            self._mask = None
            return np.maximum(x, 0.0)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def __init__(self) -> None:
        self._shape: Optional[tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None):
        if not 0 <= p < 1:
            raise ValueError("dropout probability must lie in [0, 1)")
        self.p = p
        self.seed = seed  # retained so the cohort back-end can tell seeded from not
        self.rng = seeded_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class Sequential(Module):
    """A chain of layers applied in order.

    A subclass may provide :attr:`layers` as a property instead (every model
    of :mod:`repro.nn.models` does); forward, backward and the cohort
    back-end all walk it.
    """

    def __init__(self, *layers: Module):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output
