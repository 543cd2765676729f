"""NumPy neural-network substrate (the reproduction's PyTorch stand-in).

Public API
----------
* :class:`Module`, :class:`Parameter` — model/parameter plumbing with
  ``state_dict`` and flat-vector views for federated aggregation.
* layers — :class:`Linear`, :class:`Conv2d`, :class:`MaxPool2d`,
  :class:`ReLU`, :class:`Flatten`, :class:`Sequential`.
* models — :class:`MLP`, :class:`CifarCNN`.
* metrics — :class:`BatchedEvaluator` (forward-only batched test pass),
  :func:`confusion_matrix`, :func:`per_class_accuracy`.
* cohort execution — :class:`BatchedModel`, :class:`BatchedParameter`,
  :func:`batched_cross_entropy`: the one training kernel, which trains K
  clients (one, at the least) as one batched tensor program; see
  :mod:`repro.nn.batched`.  Layers and models describe the chain it runs.
"""

from .batched import (
    BatchedModel,
    BatchedParameter,
    UnvectorizableModelError,
    batched_cross_entropy,
)
from .conv import Conv2d, MaxPool2d, col2im, im2col
from .init import kaiming_uniform, zeros
from .layers import Flatten, Linear, ReLU, Sequential
from .metrics import (
    BatchedEvaluator,
    confusion_matrix,
    per_class_accuracy,
)
from .models import MLP, CifarCNN
from .module import Module, Parameter

__all__ = [
    "BatchedEvaluator",
    "BatchedModel",
    "BatchedParameter",
    "CifarCNN",
    "Conv2d",
    "Flatten",
    "Linear",
    "MLP",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "UnvectorizableModelError",
    "batched_cross_entropy",
    "col2im",
    "confusion_matrix",
    "im2col",
    "kaiming_uniform",
    "per_class_accuracy",
    "zeros",
]
