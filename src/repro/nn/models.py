"""Model architectures used by the reproduction.

The paper trains:

* the CNN of Reddi et al. ("Adaptive federated optimization") for MNIST and
  FEMNIST — two conv layers, max pooling, two dense layers;
* ResNet18 for CIFAR10.

A full ResNet18 is far too slow for a pure-NumPy substrate at benchmark
scale, so :class:`CifarCNN` is a compact convolutional network standing in
for it (documented substitution in DESIGN.md): the selection-method
comparison only needs a model whose accuracy responds to population-
distribution bias, which any trainable CNN does.  :class:`MLP` is a cheaper
alternative used by fast tests and reduced-scale benchmarks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .conv import Conv2d, MaxPool2d
from .layers import Dropout, Flatten, Linear, ReLU, Sequential
from .module import Module

__all__ = ["MLP", "MnistCNN", "CifarCNN"]


class MLP(Module):
    """A small multi-layer perceptron over flattened inputs."""

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_output)


class MnistCNN(Module):
    """The two-conv CNN of Reddi et al., scaled to the synthetic image size.

    conv(32, 3x3) → ReLU → conv(64, 3x3) → ReLU → maxpool(2) → dense(128) →
    dropout → dense(C).  Channel widths can be narrowed for fast tests.
    """

    def __init__(self, in_channels: int = 1, image_size: int = 8, num_classes: int = 10,
                 channels: tuple[int, int] = (16, 32), hidden: int = 64,
                 dropout: float = 0.25, seed: Optional[int] = None):
        if image_size < 4:
            raise ValueError("image_size too small for two 3x3 convolutions + pooling")
        s = (lambda off: None) if seed is None else (lambda off: seed + off)
        c1, c2 = channels
        self.conv1 = Conv2d(in_channels, c1, kernel_size=3, padding=1, seed=s(1))
        self.relu1 = ReLU()
        self.conv2 = Conv2d(c1, c2, kernel_size=3, padding=1, seed=s(2))
        self.relu2 = ReLU()
        self.pool = MaxPool2d(2)
        self.flatten = Flatten()
        feat = c2 * (image_size // 2) * (image_size // 2)
        self.fc1 = Linear(feat, hidden, seed=s(3))
        self.relu3 = ReLU()
        self.dropout = Dropout(dropout, seed=0 if seed is None else seed + 4)
        self.fc2 = Linear(hidden, num_classes, seed=s(5))
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.relu1(self.conv1(x))
        x = self.relu2(self.conv2(x))
        x = self.pool(x)
        x = self.flatten(x)
        x = self.relu3(self.fc1(x))
        x = self.dropout(x)
        return self.fc2(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.fc2.backward(grad_output)
        grad = self.dropout.backward(grad)
        grad = self.relu3.backward(grad)
        grad = self.fc1.backward(grad)
        grad = self.flatten.backward(grad)
        grad = self.pool.backward(grad)
        grad = self.relu2.backward(grad)
        grad = self.conv2.backward(grad)
        grad = self.relu1.backward(grad)
        return self.conv1.backward(grad)


class CifarCNN(Module):
    """Compact conv net standing in for ResNet18 on the CIFAR-like task.

    Three conv blocks with pooling followed by a two-layer classifier.  Deep
    enough that the harder CIFAR-like synthetic task separates the selection
    methods, shallow enough to train in seconds on CPU.
    """

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.relu1(self.conv1(x))
        x = self.relu2(self.conv2(x))
        x = self.pool1(x)
        x = self.relu3(self.conv3(x))
        x = self.pool2(x)
        x = self.flatten(x)
        x = self.relu4(self.fc1(x))
        return self.fc2(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.fc2.backward(grad_output)
        grad = self.relu4.backward(grad)
        grad = self.fc1.backward(grad)
        grad = self.flatten.backward(grad)
        grad = self.pool2.backward(grad)
        grad = self.relu3.backward(grad)
        grad = self.conv3.backward(grad)
        grad = self.pool1.backward(grad)
        grad = self.relu2.backward(grad)
        grad = self.conv2.backward(grad)
        grad = self.relu1.backward(grad)
        return self.conv1.backward(grad)
