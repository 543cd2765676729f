"""Model architectures used by the reproduction.

The paper trains:

* the CNN of Reddi et al. ("Adaptive federated optimization") for MNIST and
  FEMNIST — two conv layers, max pooling, two dense layers;
* ResNet18 for CIFAR10.

Neither is in the repository.  MNIST and FEMNIST runs train :class:`MLP`
(a substitution recorded in docs/paper_mapping.md, "Where the models and
data depart from the paper"), and a full ResNet18 is far too slow for a
pure-NumPy substrate at benchmark scale, so :class:`CifarCNN` is a compact
convolutional network standing in for it: the selection-method comparison
only needs a model whose accuracy responds to population-distribution bias,
which any trainable model does.

Each model lists its layer order once, in a class-level ``chain``:
``forward``/``backward`` are :class:`~repro.nn.layers.Sequential`'s loops over
it, and the cohort back-end (:class:`repro.nn.batched.BatchedModel`)
vectorizes the same chain.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .conv import Conv2d, MaxPool2d
from .layers import Flatten, Linear, ReLU, Sequential
from .module import Module

__all__ = ["MLP", "CifarCNN"]


class _NamedChain(Sequential):
    """A :class:`Sequential` whose layers are the attributes named in ``chain``.

    The layers stay named attributes: an instance list of them would give
    every parameter a second ``state_dict`` name, since ``named_parameters``
    walks ``__dict__``.
    """

    chain: tuple[str, ...] = ()

    @property
    def layers(self) -> list[Module]:
        return [getattr(self, name) for name in self.chain]


class MLP(_NamedChain):
    """A small multi-layer perceptron over flattened inputs."""

    chain = ("net",)

    def __init__(self, in_features: int, num_classes: int,
                 hidden: Sequence[int] = (64,), seed: Optional[int] = None):
        if in_features < 1 or num_classes < 2:
            raise ValueError("invalid MLP dimensions")
        layers: list[Module] = [Flatten()]
        prev = in_features
        for i, width in enumerate(hidden):
            layers.append(Linear(prev, width, seed=None if seed is None else seed + i))
            layers.append(ReLU())
            prev = width
        layers.append(Linear(prev, num_classes, seed=None if seed is None else seed + 100))
        self.net = Sequential(*layers)
        self.num_classes = num_classes


class CifarCNN(_NamedChain):
    """Compact conv net standing in for ResNet18 on the CIFAR-like task.

    Three conv blocks with pooling followed by a two-layer classifier.  Deep
    enough that the harder CIFAR-like synthetic task separates the selection
    methods, shallow enough to train in seconds on CPU.
    """

    chain = ("conv1", "relu1", "conv2", "relu2", "pool1", "conv3", "relu3", "pool2",
             "flatten", "fc1", "relu4", "fc2")

    def __init__(self, in_channels: int = 3, image_size: int = 8, num_classes: int = 10,
                 channels: tuple[int, int, int] = (16, 32, 32), hidden: int = 64,
                 seed: Optional[int] = None):
        if image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4 (two 2x pools)")
        s = (lambda off: None) if seed is None else (lambda off: seed + off)
        c1, c2, c3 = channels
        self.conv1 = Conv2d(in_channels, c1, kernel_size=3, padding=1, seed=s(1))
        self.relu1 = ReLU()
        self.conv2 = Conv2d(c1, c2, kernel_size=3, padding=1, seed=s(2))
        self.relu2 = ReLU()
        self.pool1 = MaxPool2d(2)
        self.conv3 = Conv2d(c2, c3, kernel_size=3, padding=1, seed=s(3))
        self.relu3 = ReLU()
        self.pool2 = MaxPool2d(2)
        self.flatten = Flatten()
        feat = c3 * (image_size // 4) * (image_size // 4)
        self.fc1 = Linear(feat, hidden, seed=s(4))
        self.relu4 = ReLU()
        self.fc2 = Linear(hidden, num_classes, seed=s(5))
        self.num_classes = num_classes
