"""Checks of the sequential reference engine that the batched kernels match.

The equivalence tests hold the batched chain to :mod:`reference.sequential_nn`
bit for bit, so the reference itself must be right: every layer's backward
pass against finite differences, the loss and its gradient, the optimisers'
convergence, the mini-batch loader and the per-batch evaluation loop.
"""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.nn.conv import Conv2d
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.models import MLP
from repro.nn.module import Parameter

from reference.sequential_nn import (
    SGD,
    Adam,
    CrossEntropyLoss,
    DataLoader,
    Model,
    Param,
    evaluate_model,
    log_softmax,
    numerical_gradient,
)


def check_input_gradient(model: Model, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare analytic input gradients with numerical ones for sum(output)."""
    out = model(x)
    analytic = model.backward(np.ones_like(out))

    def loss():
        return float(model(x).sum())

    np.testing.assert_allclose(analytic, numerical_gradient(loss, x), atol=atol)


def check_parameter_gradients(model: Model, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare analytic parameter gradients with numerical ones for sum(output)."""
    for p in model.parameters():
        p.zero_grad()
    out = model(x)
    model.backward(np.ones_like(out))
    for name, p in model.named_parameters():
        def loss():
            return float(model(x).sum())

        numeric = numerical_gradient(loss, p.value)
        np.testing.assert_allclose(p.grad, numeric, atol=atol, err_msg=name)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestParam:
    def test_value_and_grad_shapes_match(self):
        p = Param(Parameter(np.ones((3, 2))))
        assert p.value.shape == p.grad.shape == (3, 2)

    def test_zero_grad(self):
        p = Param(Parameter(np.ones(4)))
        p.grad += 3.0
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros(4))

    def test_value_is_the_src_parameter(self):
        src = Parameter(np.ones(2))
        p = Param(src)
        p.value -= 1.0
        np.testing.assert_array_equal(src.value, np.zeros(2))


class TestLinear:
    def test_forward_shape(self, rng):
        assert Model(Linear(6, 4, seed=0))(rng.normal(size=(3, 6))).shape == (3, 4)

    def test_input_gradient(self, rng):
        check_input_gradient(Model(Linear(5, 3, seed=0)), rng.normal(size=(4, 5)))

    def test_parameter_gradients(self, rng):
        check_parameter_gradients(Model(Linear(5, 3, seed=0)), rng.normal(size=(4, 5)))

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, seed=0)
        assert layer.bias is None
        check_parameter_gradients(Model(layer), rng.normal(size=(3, 4)))

    def test_wrong_input_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            Model(Linear(4, 2, seed=0))(rng.normal(size=(3, 5)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            Model(Linear(4, 2, seed=0)).backward(np.zeros((3, 2)))


class TestSequentialChain:
    def test_forward_backward_chain(self, rng):
        model = Model(Sequential(Linear(6, 5, seed=0), ReLU(), Linear(5, 2, seed=1)))
        check_input_gradient(model, rng.normal(size=(3, 6)))

    def test_train_eval_propagate(self):
        mlp = MLP(4, 2, seed=0)
        model = Model(mlp).eval()
        assert all(not layer.training for layer in model.layers)
        assert all(not layer.training for layer in mlp.net.layers
                   if isinstance(layer, ReLU))
        model.train()
        assert all(layer.training for layer in model.layers)


class TestConv2d:
    def test_forward_shape(self, rng):
        conv = Model(Conv2d(2, 4, kernel_size=3, padding=1, seed=0))
        assert conv(rng.normal(size=(2, 2, 6, 6))).shape == (2, 4, 6, 6)

    def test_forward_shape_stride(self, rng):
        conv = Model(Conv2d(1, 3, kernel_size=3, stride=2, seed=0))
        assert conv(rng.normal(size=(2, 1, 7, 7))).shape == (2, 3, 3, 3)

    def test_input_gradient(self, rng):
        check_input_gradient(Model(Conv2d(2, 3, kernel_size=3, padding=1, seed=0)),
                             rng.normal(size=(2, 2, 4, 4)))

    def test_parameter_gradients(self, rng):
        check_parameter_gradients(Model(Conv2d(2, 2, kernel_size=3, padding=1, seed=0)),
                                  rng.normal(size=(2, 2, 4, 4)))

    def test_matches_manual_convolution(self):
        conv = Conv2d(1, 1, kernel_size=2, bias=False, seed=0)
        conv.weight.value = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        expected = np.array([[[[0 - 4, 1 - 5], [3 - 7, 4 - 8]]]], dtype=float)
        np.testing.assert_allclose(Model(conv)(x), expected)

    def test_wrong_channels_rejected(self, rng):
        with pytest.raises(ValueError):
            Model(Conv2d(3, 2, kernel_size=3))(rng.normal(size=(1, 1, 4, 4)))


class TestLogSoftmax:
    def test_rows_exponentiate_to_one(self):
        p = np.exp(log_softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])))
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0])

    def test_stability_with_large_logits(self):
        p = np.exp(log_softmax(np.array([[1000.0, 1001.0]])))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0)


class TestCrossEntropyLoss:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = CrossEntropyLoss()(logits, np.array([0, 1]))
        assert loss < 1e-4

    def test_uniform_prediction_loss_is_log_c(self):
        loss, _ = CrossEntropyLoss()(np.zeros((3, 4)), np.array([0, 1, 2]))
        assert loss == pytest.approx(np.log(4))

    def test_gradient_shape_and_mean(self):
        logits = np.random.default_rng(0).normal(size=(6, 5))
        _, grad = CrossEntropyLoss()(logits, np.arange(6) % 5)
        assert grad.shape == logits.shape
        # gradient rows sum to zero (softmax minus one-hot)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_invalid_inputs(self):
        loss = CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss(np.zeros(3), np.array([0]))
        with pytest.raises(ValueError):
            loss(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            loss(np.zeros((2, 3)), np.array([0, 7]))
        with pytest.raises(ValueError):
            CrossEntropyLoss(class_weights=np.ones(2))(np.zeros((2, 3)), np.array([0, 1]))

    @pytest.mark.parametrize("class_weights", [None, np.array([1.0, 2.0, 0.5, 1.0])],
                             ids=["plain", "weighted"])
    def test_gradient_matches_numerical(self, rng, class_weights):
        logits = rng.normal(size=(5, 4))
        targets = np.array([0, 3, 1, 2, 2])
        loss_fn = CrossEntropyLoss(class_weights=class_weights)
        _, grad = loss_fn(logits, targets)
        numeric = numerical_gradient(lambda: loss_fn(logits, targets)[0], logits)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


class _Quadratic:
    """Minimal model with loss (p - 1)^2 for optimiser convergence tests."""

    def __init__(self, start: float):
        self.p = Param(Parameter(np.array([start])))

    def parameters(self):
        return [self.p]


class TestOptimizers:
    def _train(self, optimizer_cls, steps, **kwargs):
        model = _Quadratic(5.0)
        opt = optimizer_cls(model, **kwargs)
        for _ in range(steps):
            opt.zero_grad()
            model.p.grad += 2 * (model.p.value - 1.0)  # d/dp (p-1)^2
            opt.step()
        return float(model.p.value[0])

    def test_sgd_converges(self):
        assert self._train(SGD, 200, lr=0.1) == pytest.approx(1.0, abs=1e-3)

    def test_sgd_momentum_converges(self):
        assert self._train(SGD, 200, lr=0.05, momentum=0.9) == pytest.approx(1.0, abs=1e-2)

    def test_adam_converges(self):
        assert self._train(Adam, 600, lr=0.05) == pytest.approx(1.0, abs=1e-2)

    def test_sgd_single_step_matches_hand_computation(self):
        model = _Quadratic(2.0)
        opt = SGD(model, lr=0.5)
        model.p.grad += np.array([3.0])
        opt.step()
        assert model.p.value[0] == pytest.approx(2.0 - 0.5 * 3.0)

    def test_weight_decay_shrinks_weights(self):
        model = _Quadratic(2.0)
        opt = SGD(model, lr=0.1, weight_decay=1.0)
        opt.step()
        assert model.p.value[0] == pytest.approx(2.0 - 0.1 * 2.0)

    def test_invalid_hyperparameters(self):
        model = _Quadratic(1.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            Adam(model, lr=-1)
        with pytest.raises(ValueError):
            Adam(model, betas=(1.5, 0.9))

    def test_model_without_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD(Model(ReLU()), lr=0.1)


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 1, 4, 4)).astype(np.float32)
    y = np.repeat(np.arange(5), 20)
    return ArrayDataset(x, y)


class TestDataLoader:
    def test_number_of_batches(self, dataset):
        batches = list(DataLoader(dataset, batch_size=8, shuffle=False))
        assert len(batches) == 13
        assert batches[0][0].shape == (8, 1, 4, 4)
        assert batches[-1][0].shape[0] == 4

    def test_drop_last(self, dataset):
        batches = list(DataLoader(dataset, batch_size=8, drop_last=True, shuffle=False))
        assert len(batches) == 12
        assert all(xb.shape[0] == 8 for xb, _ in batches)

    def test_covers_all_samples(self, dataset):
        loader = DataLoader(dataset, batch_size=16, shuffle=True, seed=0)
        ys = np.concatenate([yb for _, yb in loader])
        np.testing.assert_array_equal(np.sort(ys), np.sort(dataset.y))

    def test_seeded_shuffle_reproducible(self, dataset):
        a = np.concatenate([yb for _, yb in DataLoader(dataset, 16, seed=3)])
        b = np.concatenate([yb for _, yb in DataLoader(dataset, 16, seed=3)])
        np.testing.assert_array_equal(a, b)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)


class TestEvaluateModel:
    def test_report(self):
        gen = make_synthetic_mnist(seed=0)
        test = make_uniform_test_set(gen, samples_per_class=5, seed=0)
        model = MLP(gen.flat_feature_dim(), 10, hidden=(8,), seed=0)
        result = evaluate_model(model, test, batch_size=16)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["n_samples"] == 50
        assert result["confusion_matrix"].sum() == 50
