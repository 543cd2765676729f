"""Tests for the loss, optimisers, model architectures and metrics."""

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.nn.loss import CrossEntropyLoss, log_softmax
from repro.nn.metrics import confusion_matrix, evaluate_model, per_class_accuracy
from repro.nn.models import MLP, CifarCNN, MnistCNN
from repro.nn.optim import SGD, Adam
from repro.nn.module import Module, Parameter


def zero_grads(model):
    for p in model.parameters():
        p.zero_grad()


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
        logits = np.zeros((3, 4))
        loss, _ = CrossEntropyLoss()(logits, np.array([0, 1, 2]))
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


class _Quadratic(Module):
    """Minimal model with loss (p - target)^2 for optimiser convergence tests."""

    def __init__(self, start: float):
        self.p = Parameter(np.array([start]))

    def forward(self, x):  # pragma: no cover - unused
        return self.p.value

    def backward(self, grad_output):  # pragma: no cover - unused
        return grad_output


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
        model.p.grad += np.array([0.0])
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
        class Empty(Module):
            pass

        with pytest.raises(ValueError):
            SGD(Empty(), lr=0.1)


class TestModels:
    @pytest.mark.parametrize("make,channels", [
        (lambda: MLP(64, 10, seed=0), 1),
        (lambda: MnistCNN(1, 8, 10, seed=0), 1),
        (lambda: CifarCNN(3, 8, 10, seed=0), 3),
    ], ids=["mlp", "mnist_cnn", "cifar_cnn"])
    def test_forward_shapes(self, make, channels):
        model = make()
        x = np.random.default_rng(0).normal(size=(4, channels, 8, 8))
        if isinstance(model, MLP):
            x = x.reshape(4, -1)
        assert model(x).shape == (4, 10)

    def test_backward_produces_gradients(self):
        model = MnistCNN(1, 8, 10, channels=(4, 8), hidden=16, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        logits = model(x)
        loss_fn = CrossEntropyLoss()
        _, grad = loss_fn(logits, np.array([1, 2]))
        zero_grads(model)
        model.backward(grad)
        assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())

    def test_cifar_cnn_backward(self):
        model = CifarCNN(3, 8, 10, channels=(4, 8, 8), hidden=16, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        logits = model(x)
        _, grad = CrossEntropyLoss()(logits, np.array([0, 5]))
        zero_grads(model)
        model.backward(grad)
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    def test_training_reduces_loss_and_learns(self):
        # small end-to-end sanity check: an MLP learns the synthetic task
        gen = make_synthetic_mnist(seed=0)
        train = gen.generate([40] * 10, rng=np.random.default_rng(1))
        test = make_uniform_test_set(gen, samples_per_class=20, seed=2)
        model = MLP(gen.flat_feature_dim(), 10, hidden=(32,), seed=0)
        opt = Adam(model, lr=5e-3)
        loss_fn = CrossEntropyLoss()
        x = train.x.reshape(len(train), -1)
        y = train.y
        first_loss = None
        for epoch in range(30):
            logits = model(x)
            loss, grad = loss_fn(logits, y)
            if first_loss is None:
                first_loss = loss
            opt.zero_grad()
            model.backward(grad)
            opt.step()
        assert loss < first_loss
        test_logits = model(test.x.reshape(len(test), -1))
        assert (test_logits.argmax(axis=1) == test.y).mean() > 0.5


class TestMetrics:
    def test_confusion_matrix(self):
        m = confusion_matrix(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3)
        np.testing.assert_array_equal(m, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])

    def test_confusion_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)

    def test_per_class_accuracy(self):
        acc = per_class_accuracy(np.array([0, 1, 0]), np.array([0, 1, 1]), 3)
        assert acc[0] == pytest.approx(1.0)
        assert acc[1] == pytest.approx(0.5)
        assert np.isnan(acc[2])

    def test_evaluate_model(self):
        gen = make_synthetic_mnist(seed=0)
        test = make_uniform_test_set(gen, samples_per_class=5, seed=0)
        model = MLP(gen.flat_feature_dim(), 10, hidden=(8,), seed=0)

        class FlattenWrapper(Module):
            def __init__(self, inner):
                self.inner = inner

            def forward(self, x):
                return self.inner(x.reshape(x.shape[0], -1))

            def backward(self, g):  # pragma: no cover - not used
                return g

        result = evaluate_model(FlattenWrapper(model), test, batch_size=16)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["n_samples"] == 50
        assert result["confusion_matrix"].sum() == 50
