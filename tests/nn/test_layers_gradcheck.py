"""Gradient checks: every layer's backward pass against numerical differentiation."""

import numpy as np
import pytest

from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sequential
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_input_gradient(layer: Module, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare analytic input gradients with numerical ones for sum(output)."""
    out = layer(x)
    analytic = layer.backward(np.ones_like(out))

    def loss():
        return float(layer(x).sum())

    numeric = numerical_gradient(loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


def check_parameter_gradients(layer: Module, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare analytic parameter gradients with numerical ones for sum(output)."""
    for p in layer.parameters():
        p.zero_grad()
    out = layer(x)
    layer.backward(np.ones_like(out))
    for name, p in layer.named_parameters():
        def loss():
            return float(layer(x).sum())

        numeric = numerical_gradient(loss, p.value)
        np.testing.assert_allclose(p.grad, numeric, atol=atol, err_msg=name)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(6, 4, seed=0)
        assert layer(rng.normal(size=(3, 6))).shape == (3, 4)

    def test_input_gradient(self, rng):
        check_input_gradient(Linear(5, 3, seed=0), rng.normal(size=(4, 5)))

    def test_parameter_gradients(self, rng):
        check_parameter_gradients(Linear(5, 3, seed=0), rng.normal(size=(4, 5)))

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, seed=0)
        assert layer.bias is None
        check_parameter_gradients(layer, rng.normal(size=(3, 4)))

    def test_wrong_input_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 2, seed=0)(rng.normal(size=(3, 5)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            Linear(4, 2, seed=0).backward(np.zeros((3, 2)))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestActivationsAndShaping:
    def test_relu_gradient(self, rng):
        check_input_gradient(ReLU(), rng.normal(size=(4, 6)) + 0.05)

    def test_relu_zeroes_negatives(self):
        out = ReLU()(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer(x)
        assert out.shape == (2, 48)
        np.testing.assert_allclose(layer.backward(out), x)

    def test_dropout_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, seed=0)
        layer.eval()
        x = rng.normal(size=(5, 5))
        np.testing.assert_allclose(layer(x), x)

    def test_dropout_train_mode_masks(self, rng):
        layer = Dropout(0.5, seed=0)
        x = np.ones((200, 10))
        out = layer(x)
        dropped = (out == 0).mean()
        assert 0.3 < dropped < 0.7
        # surviving entries are scaled by 1/keep
        assert np.allclose(out[out != 0], 2.0)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_backward_before_forward_errors(self):
        for layer in (ReLU(), Flatten()):
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 1)))


class TestSequential:
    def test_forward_backward_chain(self, rng):
        model = Sequential(Linear(6, 5, seed=0), ReLU(), Linear(5, 2, seed=1))
        check_input_gradient(model, rng.normal(size=(3, 6)))

    def test_layers_in_order(self):
        model = Sequential(Linear(3, 3, seed=0), ReLU())
        assert [type(layer) for layer in model.layers] == [Linear, ReLU]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential()


class TestConv2d:
    def test_forward_shape(self, rng):
        conv = Conv2d(2, 4, kernel_size=3, padding=1, seed=0)
        assert conv(rng.normal(size=(2, 2, 6, 6))).shape == (2, 4, 6, 6)

    def test_forward_shape_stride(self, rng):
        conv = Conv2d(1, 3, kernel_size=3, stride=2, seed=0)
        assert conv(rng.normal(size=(2, 1, 7, 7))).shape == (2, 3, 3, 3)

    def test_input_gradient(self, rng):
        check_input_gradient(Conv2d(2, 3, kernel_size=3, padding=1, seed=0),
                             rng.normal(size=(2, 2, 4, 4)))

    def test_parameter_gradients(self, rng):
        check_parameter_gradients(Conv2d(2, 2, kernel_size=3, padding=1, seed=0),
                                  rng.normal(size=(2, 2, 4, 4)))

    def test_matches_manual_convolution(self):
        conv = Conv2d(1, 1, kernel_size=2, bias=False, seed=0)
        conv.weight.value = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv(x)
        expected = np.array([[[[0 - 4, 1 - 5], [3 - 7, 4 - 8]]]], dtype=float)
        np.testing.assert_allclose(out, expected)

    def test_wrong_channels_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 2, kernel_size=3)(rng.normal(size=(1, 1, 4, 4)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel_size=3, stride=0)


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_allclose(out, [[[[5, 7], [13, 15]]]])

    def test_maxpool_input_gradient(self, rng):
        # add tiny noise so no ties make the subgradient ambiguous
        x = rng.normal(size=(2, 2, 4, 4)) * 10
        check_input_gradient(MaxPool2d(2), x)

    def test_indivisible_size_rejected(self, rng):
        with pytest.raises(ValueError):
            MaxPool2d(3)(rng.normal(size=(1, 1, 4, 4)))


class TestCrossEntropyGradient:
    def test_loss_gradient_matches_numerical(self, rng):
        logits = rng.normal(size=(5, 4))
        targets = np.array([0, 3, 1, 2, 2])
        loss_fn = CrossEntropyLoss()
        _, grad = loss_fn(logits, targets)

        def loss():
            return loss_fn(logits, targets)[0]

        numeric = numerical_gradient(loss, logits)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_weighted_loss_gradient_matches_numerical(self, rng):
        logits = rng.normal(size=(4, 3))
        targets = np.array([0, 1, 2, 1])
        loss_fn = CrossEntropyLoss(class_weights=np.array([1.0, 2.0, 0.5]))
        _, grad = loss_fn(logits, targets)

        def loss():
            return loss_fn(logits, targets)[0]

        numeric = numerical_gradient(loss, logits)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)
