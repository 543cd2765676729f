"""Tests for the model architectures and the classification metrics.

Every model trains through the batched chain, so these run it with one
client slice (K = 1).
"""

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.nn.batched import BatchedAdam, BatchedModel, batched_cross_entropy
from repro.nn.metrics import confusion_matrix, per_class_accuracy
from repro.nn.models import MLP, CifarCNN


def one_client(model):
    """*model* as a K = 1 cohort (its layer chain on the batched kernels)."""
    return BatchedModel(model, 1)


class TestModels:
    @pytest.mark.parametrize("make,channels", [
        (lambda: MLP(64, 10, seed=0), 1),
        (lambda: CifarCNN(1, 8, 10, seed=0), 1),
        (lambda: CifarCNN(3, 8, 10, seed=0), 3),
    ], ids=["mlp", "cifar_cnn_1ch", "cifar_cnn"])
    def test_forward_shapes(self, make, channels):
        x = np.random.default_rng(0).normal(size=(1, 4, channels, 8, 8))
        assert one_client(make()).forward(x).shape == (1, 4, 10)

    def test_backward_produces_gradients(self):
        model = one_client(CifarCNN(1, 8, 10, channels=(4, 8, 8), hidden=16, seed=0))
        x = np.random.default_rng(0).normal(size=(1, 2, 1, 8, 8))
        _, grad = batched_cross_entropy(model.forward(x), np.array([[1, 2]]))
        model.backward(grad)
        assert np.abs(model.flat_grads).sum() > 0

    def test_cifar_cnn_backward(self):
        model = one_client(CifarCNN(3, 8, 10, channels=(4, 8, 8), hidden=16, seed=0))
        x = np.random.default_rng(0).normal(size=(1, 2, 3, 8, 8))
        _, grad = batched_cross_entropy(model.forward(x), np.array([[0, 5]]))
        model.backward(grad)
        assert np.isfinite(model.flat_grads).all()

    def test_training_reduces_loss_and_learns(self):
        # small end-to-end sanity check: an MLP learns the synthetic task
        gen = make_synthetic_mnist(seed=0)
        train = gen.generate([40] * 10, rng=np.random.default_rng(1))
        test = make_uniform_test_set(gen, samples_per_class=20, seed=2)
        model = one_client(MLP(gen.flat_feature_dim(), 10, hidden=(32,), seed=0))
        opt = BatchedAdam(model, lr=5e-3)
        x = train.x[None]
        y = train.y[None]
        first_loss = None
        for epoch in range(30):
            losses, grad = batched_cross_entropy(model.forward(x), y)
            if first_loss is None:
                first_loss = losses[0]
            model.backward(grad)
            opt.step()
        assert losses[0] < first_loss
        test_logits = model.eval().forward(test.x[None])[0]
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
