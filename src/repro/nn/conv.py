"""Convolution and pooling layers (im2col-based) for the NumPy NN substrate.

The paper trains the CNN of Reddi et al. on MNIST/FEMNIST and ResNet18 on
CIFAR10.  These layers provide the convolutional building blocks needed for
the reproduction's stand-in models.  Convolution is implemented with the
standard im2col/col2im trick so the heavy lifting is one large matrix
multiplication per layer — the idiomatic way to keep a pure-NumPy
implementation fast (vectorise, avoid Python-level pixel loops).
:class:`~repro.nn.batched.BatchedConv2d` holds the convolution kernel;
:class:`MaxPool2d` keeps its per-sample kernel, which the batched chain
folds over the client axis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .init import kaiming_uniform, zeros
from .module import Module, Parameter, seeded_rng

__all__ = ["Conv2d", "MaxPool2d", "im2col", "col2im"]


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kernel * kernel)``.
    out_h, out_w:
        Spatial size of the convolution output.
    """
    n, c, h, w = x.shape
    out_h = _output_size(h, kernel, stride, padding)
    out_w = _output_size(w, kernel, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than padded input")
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # gather patches with stride tricks-free fancy indexing (clear and fast enough)
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return cols, out_h, out_w


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kernel: int,
           stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter column gradients back to image space."""
    n, c, h, w = x_shape
    out_h = _output_size(h, kernel, stride, padding)
    out_w = _output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2d(Module):
    """2-D convolution with square kernels (parameters and geometry)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 seed: Optional[int] = None):
        if in_channels < 1 or out_channels < 1 or kernel_size < 1:
            raise ValueError("channels and kernel_size must be positive")
        if stride < 1 or padding < 0:
            raise ValueError("invalid stride/padding")
        rng = seeded_rng(seed)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
        )
        self.bias = Parameter(zeros((out_channels,))) if bias else None


class MaxPool2d(Module):
    """Max pooling with square windows (kernel == stride)."""

    def __init__(self, kernel_size: int):
        if kernel_size < 1:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"input spatial size {h}x{w} not divisible by pool {k}")
        reshaped = x.reshape(n, c, h // k, k, w // k, k)
        out = reshaped.max(axis=(3, 5))
        # argmax mask for the backward pass
        mask = reshaped == out[:, :, :, None, :, None]
        self._cache = (x.shape, mask)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, mask = self._cache
        n, c, h, w = x_shape
        k = self.kernel_size
        grad = mask * grad_output[:, :, :, None, :, None]
        # when several entries tie for the max, split the gradient between them
        # (tie counts cast to the gradient dtype, so the division keeps it)
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad = grad / np.maximum(counts, 1).astype(grad.dtype)
        return grad.reshape(n, c, h, w)
