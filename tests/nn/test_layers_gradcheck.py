"""Gradient checks: the training kernels' backward passes against finite differences.

Every batched check runs a K = 2 cohort whose two clients hold distinct
weights and inputs, so a kernel that mixed the clients' slices would fail.
The parameter-free layers keep their per-sample kernels in ``src`` (the
batched chain folds them over the client axis) and are checked directly;
the layers that describe a model keep their constructor validation here.
The checks of the sequential reference engine live in
``tests/reference/test_sequential_nn.py``.
"""

import numpy as np
import pytest

from repro.nn.batched import (
    BatchedConv2d,
    BatchedLinear,
    BatchedModel,
    FoldedLayer,
    batched_cross_entropy,
)
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.module import Module

from reference.sequential_nn import numerical_gradient


def check_input_gradient(layer: Module, x: np.ndarray, atol: float = 1e-5) -> None:
    """A per-sample kernel's input gradient against finite differences of sum(output)."""
    out = layer.forward(x)
    analytic = layer.backward(np.ones_like(out))

    def loss():
        return float(layer.forward(x).sum())

    np.testing.assert_allclose(analytic, numerical_gradient(loss, x), atol=atol)


def two_client_cohort(layer: Module, kernel: type) -> BatchedModel:
    """*layer* as a K = 2 cohort whose second client holds different weights."""
    model = BatchedModel(Sequential(layer), 2)
    assert type(model.layers[0]) is kernel
    rng = np.random.default_rng(7)
    for _, stacked in model._named:
        stacked.value[1] += 0.5 * rng.standard_normal(stacked.value.shape[1:])
    return model


def check_cohort_gradients(model: BatchedModel, x: np.ndarray, atol: float = 1e-6) -> None:
    """Input and per-client parameter gradients of ``sum(output · cotangent)``."""
    out = model.forward(x)
    cotangent = np.random.default_rng(3).standard_normal(out.shape)
    grad_x = model.backward(cotangent)
    grads = {name: stacked.grad.copy() for name, stacked in model._named}

    def loss():
        return float((model.forward(x) * cotangent).sum())

    np.testing.assert_allclose(grad_x, numerical_gradient(loss, x), atol=atol)
    for name, stacked in model._named:
        np.testing.assert_allclose(grads[name], numerical_gradient(loss, stacked.value),
                                   atol=atol, err_msg=name)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestBatchedKernels:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_linear(self, rng, bias):
        model = two_client_cohort(Linear(5, 3, bias=bias, seed=0), BatchedLinear)
        check_cohort_gradients(model, rng.standard_normal((2, 4, 5)))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv2d(self, rng, stride, padding):
        conv = Conv2d(2, 3, kernel_size=3, stride=stride, padding=padding, seed=0)
        model = two_client_cohort(conv, BatchedConv2d)
        check_cohort_gradients(model, rng.standard_normal((2, 2, 2, 5, 5)))

    def test_folded_relu(self, rng):
        x = rng.standard_normal((2, 3, 6))
        x += 0.1 * np.sign(x)  # keep clear of the kink at 0
        check_cohort_gradients(two_client_cohort(ReLU(), FoldedLayer), x)

    def test_folded_maxpool(self, rng):
        # wide spread: no ties make the subgradient ambiguous
        x = rng.standard_normal((2, 2, 2, 4, 4)) * 10
        check_cohort_gradients(two_client_cohort(MaxPool2d(2), FoldedLayer), x)

    def test_cross_entropy(self, rng):
        logits = rng.standard_normal((2, 5, 4))
        targets = np.array([[0, 3, 1, 2, 2], [1, 1, 0, 3, 2]])
        _, grad = batched_cross_entropy(logits, targets)

        def loss():
            return float(batched_cross_entropy(logits, targets)[0].sum())

        np.testing.assert_allclose(grad, numerical_gradient(loss, logits), atol=1e-6)


class TestParameterFreeKernels:
    def test_relu_gradient(self, rng):
        check_input_gradient(ReLU(), rng.normal(size=(4, 6)) + 0.05)

    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        np.testing.assert_allclose(layer.backward(out), x)

    def test_backward_before_forward_errors(self):
        for layer in (ReLU(), Flatten()):
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 1)))

    def test_maxpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(MaxPool2d(2).forward(x), [[[[5, 7], [13, 15]]]])

    def test_maxpool_input_gradient(self, rng):
        # add tiny noise so no ties make the subgradient ambiguous
        check_input_gradient(MaxPool2d(2), rng.normal(size=(2, 2, 4, 4)) * 10)

    def test_indivisible_size_rejected(self, rng):
        with pytest.raises(ValueError):
            MaxPool2d(3).forward(rng.normal(size=(1, 1, 4, 4)))


class TestConstructorValidation:
    def test_linear_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_conv2d_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=3, stride=0)

    def test_sequential_layers_in_order(self):
        model = Sequential(Linear(3, 3, seed=0), ReLU())
        assert [type(layer) for layer in model.layers] == [Linear, ReLU]

    def test_empty_sequential_rejected(self):
        with pytest.raises(ValueError):
            Sequential()
