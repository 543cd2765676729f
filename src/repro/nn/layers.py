"""Dense layers, activations and containers for the NumPy NN substrate.

``Linear`` and ``Sequential`` describe a model: its parameters,
hyper-parameters and layer order.  The batched chain
(:mod:`repro.nn.batched`) holds their one kernel.  The parameter-free
``ReLU`` and ``Flatten`` keep per-sample ``forward``/``backward`` kernels,
which the batched chain runs with the client axis folded into the batch
axis; each ``forward`` caches whatever the matching ``backward`` needs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .init import kaiming_uniform, zeros
from .module import Module, Parameter, seeded_rng

__all__ = ["Linear", "ReLU", "Flatten", "Sequential"]


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


class Sequential(Module):
    """A chain of layers applied in order.

    A subclass may provide :attr:`layers` as a property instead (every model
    of :mod:`repro.nn.models` does); the cohort back-end walks it.  A
    subclass that defines its own ``forward`` is no chain, and
    :class:`~repro.nn.batched.BatchedModel` refuses it.
    """

    def __init__(self, *layers: Module):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)
