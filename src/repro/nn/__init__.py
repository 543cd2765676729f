"""NumPy neural-network substrate (the reproduction's PyTorch stand-in).

Public API
----------
* :class:`Module`, :class:`Parameter` — model/parameter plumbing with
  ``state_dict`` and flat-vector views for federated aggregation.
* layers — :class:`Linear`, :class:`Conv2d`, :class:`MaxPool2d`,
  :class:`ReLU`, :class:`Flatten`, :class:`Dropout`, :class:`Sequential`.
* :class:`CrossEntropyLoss`, :func:`log_softmax`.
* optimisers — :class:`SGD`, :class:`Adam`.
* models — :class:`MLP`, :class:`MnistCNN`, :class:`CifarCNN`.
* metrics — :func:`evaluate_model`,
  :class:`BatchedEvaluator` (forward-only batched test pass).
* cohort execution — :class:`BatchedModel`, :class:`BatchedParameter`,
  :func:`batched_cross_entropy` (train K clients as one batched tensor
  program; see :mod:`repro.nn.batched`).
"""

from .batched import (
    BatchedModel,
    BatchedParameter,
    UnvectorizableModelError,
    batched_cross_entropy,
)
from .conv import Conv2d, MaxPool2d, col2im, im2col
from .init import kaiming_uniform, zeros
from .layers import Dropout, Flatten, Linear, ReLU, Sequential
from .loss import CrossEntropyLoss, log_softmax
from .metrics import (
    BatchedEvaluator,
    confusion_matrix,
    evaluate_model,
    per_class_accuracy,
)
from .models import MLP, CifarCNN, MnistCNN
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer

__all__ = [
    "Adam",
    "BatchedEvaluator",
    "BatchedModel",
    "BatchedParameter",
    "CifarCNN",
    "Conv2d",
    "CrossEntropyLoss",
    "Dropout",
    "Flatten",
    "Linear",
    "MLP",
    "MaxPool2d",
    "MnistCNN",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "UnvectorizableModelError",
    "batched_cross_entropy",
    "col2im",
    "confusion_matrix",
    "evaluate_model",
    "im2col",
    "kaiming_uniform",
    "log_softmax",
    "per_class_accuracy",
    "zeros",
]
