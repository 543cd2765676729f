"""Batched (forward-only) evaluation must reproduce the per-batch test pass."""

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.federated.client import FederatedClient, LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.federated.server import FederatedServer
from repro.nn.batched import UnvectorizableModelError
from repro.nn.layers import Linear
from repro.nn.metrics import BatchedEvaluator
from repro.nn.models import MLP, CifarCNN
from repro.nn.module import Module

from reference.sequential_nn import evaluate_model


def mlp_factory():
    return MLP(64, 10, hidden=(16,), seed=11)


def cnn_factory():
    return CifarCNN(1, 8, 10, channels=(3, 5, 5), hidden=12, seed=11)


@pytest.fixture(scope="module")
def test_set():
    return make_uniform_test_set(make_synthetic_mnist(seed=0),
                                 samples_per_class=20, seed=1)


def trained_server(factory, rounds=2):
    """A server whose global model has moved off its initialisation."""
    gen = make_synthetic_mnist(seed=0)
    clients = [
        FederatedClient(k, 10,
                        dataset=gen.generate([3] * 10, rng=np.random.default_rng(k)),
                        seed=500 + k)
        for k in range(4)
    ]
    server = FederatedServer(factory)
    executor = LocalUpdateExecutor("vectorized")
    for r in range(rounds):
        states = executor.run_round(clients, factory, server.global_state(),
                                    LocalTrainingConfig(learning_rate=1e-3),
                                    round_index=r).states
        server.aggregate(states)
    return server


def assert_reports_equal(a, b):
    assert a["accuracy"] == b["accuracy"]
    assert a["n_samples"] == b["n_samples"]
    np.testing.assert_array_equal(a["confusion_matrix"], b["confusion_matrix"])
    np.testing.assert_array_equal(
        np.nan_to_num(a["per_class_accuracy"], nan=-1.0),
        np.nan_to_num(b["per_class_accuracy"], nan=-1.0),
    )


class TestBatchedEvaluator:
    @pytest.mark.parametrize("factory", [mlp_factory, cnn_factory],
                             ids=["mlp", "cifar_cnn_1ch"])
    def test_matches_sequential_loop(self, factory, test_set):
        server = trained_server(factory)
        evaluator = BatchedEvaluator(factory())
        evaluator.load_state(server.global_state(copy=False))
        batched = evaluator.evaluate(test_set)
        sequential = evaluate_model(server.global_model, test_set, batch_size=64)
        assert_reports_equal(batched, sequential)

    def test_chunking_does_not_change_predictions(self, test_set,
                                                  monkeypatch):
        server = trained_server(mlp_factory)
        evaluator = BatchedEvaluator(mlp_factory())
        evaluator.load_state(server.global_state(copy=False))
        assert len(test_set) < BatchedEvaluator.CHUNK_SIZE
        whole = evaluator.predictions(test_set)  # one chunk
        monkeypatch.setattr(BatchedEvaluator, "CHUNK_SIZE", 7)
        np.testing.assert_array_equal(evaluator.predictions(test_set), whole)

    def test_reusable_across_state_updates(self, test_set):
        # one evaluator tracks a moving global model (the round-persistent use)
        evaluator = BatchedEvaluator(mlp_factory())
        for rounds in (1, 2):
            server = trained_server(mlp_factory, rounds=rounds)
            evaluator.load_state(server.global_state(copy=False))
            reference = evaluate_model(server.global_model, test_set)
            assert evaluator.evaluate(test_set)["accuracy"] == reference["accuracy"]

    def test_effective_chunk_bounded_by_element_budget(self):
        evaluator = BatchedEvaluator(mlp_factory())
        assert BatchedEvaluator.CHUNK_SIZE == 2048
        # narrow samples (benchmark MLP): full chunk
        assert evaluator._effective_chunk(64) == 2048
        # wide conv-stack samples shrink the chunk to bound im2col memory
        budget = BatchedEvaluator.CHUNK_ELEMENT_BUDGET
        assert evaluator._effective_chunk(3072) == budget // 3072
        assert evaluator._effective_chunk(10 * budget) == 1


class TestServerEvalBackend:
    def test_batched_evaluation_matches_the_sequential_loop(self, test_set):
        server = trained_server(mlp_factory)
        assert_reports_equal(server.evaluate(test_set),
                             evaluate_model(server.global_model, test_set))

    def test_evaluation_tracks_the_global_model_across_rounds(self, test_set):
        server = trained_server(cnn_factory, rounds=1)
        first = server.evaluate(test_set)
        assert_reports_equal(first,
                             evaluate_model(server.global_model, test_set))
        state = server.global_state()
        server.aggregate([{k: v * 0.5 for k, v in state.items()}])
        assert_reports_equal(server.evaluate(test_set),
                             evaluate_model(server.global_model, test_set))

    def test_unvectorizable_model_raises(self, test_set):
        # a model that is no layer chain has no evaluation kernel
        class Custom(Module):
            def __init__(self):
                self.lin = Linear(64, 10, seed=0)

            def forward(self, x):
                return x.reshape(x.shape[0], -1) @ self.lin.weight.value.T

        server = FederatedServer(Custom)
        with pytest.raises(UnvectorizableModelError):
            server.evaluate(test_set)
