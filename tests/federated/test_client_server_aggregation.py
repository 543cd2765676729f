"""Tests for clients, aggregation rules and the federated server."""

import numpy as np
import pytest

from repro.data.cohort import DatasetCache
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.federated.aggregation import (
    average_states,
    state_difference_norm,
    weighted_average_states,
)
from repro.federated.client import FederatedClient, LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.federated.server import FederatedServer
from repro.nn.models import MLP

from reference.sequential_nn import local_train as reference_local_train


def make_client_dataset(counts, seed=0):
    gen = make_synthetic_mnist(seed=0)
    return gen.generate(counts, rng=np.random.default_rng(seed))


def mlp_factory():
    return MLP(64, 10, hidden=(16,), seed=42)


class TestLocalTrainingConfig:
    def test_defaults_match_paper_group1(self):
        config = LocalTrainingConfig()
        assert config.batch_size == 8
        assert config.local_epochs == 1
        assert config.learning_rate == pytest.approx(1e-4)
        assert config.optimizer == "adam"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"local_epochs": 0},
            {"learning_rate": 0},
            {"optimizer": "rmsprop"},
            {"max_batches_per_epoch": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LocalTrainingConfig(**kwargs)


class TestFederatedClient:
    def test_requires_dataset_or_factory(self):
        with pytest.raises(ValueError):
            FederatedClient(0, 10)

    def test_a_lazy_client_needs_a_cache(self):
        # the cache is where lazy data lives: no client memoises its own
        with pytest.raises(ValueError, match="cache"):
            FederatedClient(0, 10,
                            dataset_factory=lambda: make_client_dataset([1] * 10))

    def test_label_distribution(self):
        ds = make_client_dataset([5, 0, 5, 0, 0, 0, 0, 0, 0, 0])
        client = FederatedClient(0, 10, dataset=ds)
        dist = client.dataset.class_distribution()
        assert dist[0] == pytest.approx(0.5)
        assert dist[2] == pytest.approx(0.5)
        assert client.num_samples == 10

    def test_lazy_dataset_factory_called_once(self):
        calls = []

        def factory():
            calls.append(1)
            return make_client_dataset([2] * 10)

        client = FederatedClient(1, 10, dataset_factory=factory,
                                 cache=DatasetCache(4))
        assert not calls
        _ = client.dataset
        _ = client.dataset
        assert len(calls) == 1

    def test_local_train_returns_a_trained_state_it_owns(self):
        ds = make_client_dataset([4] * 10)
        flat_ds = ArrayDataset(ds.x.reshape(len(ds), -1), ds.y, num_classes=10)
        client = FederatedClient(0, 10, dataset=flat_ds, seed=0)
        model = MLP(64, 10, hidden=(16,), seed=1)
        before = model.state_dict()
        state = client.local_train(model, LocalTrainingConfig(learning_rate=1e-2))
        assert set(state) == set(before)
        assert any(not np.array_equal(state[k], before[k]) for k in before)
        # the model keeps its weights; every returned array owns its memory
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        assert all(value.base is None for value in state.values())

    def test_local_train_matches_the_sequential_reference(self):
        ds = make_client_dataset([3] * 10)
        client = FederatedClient(0, 10, dataset=ds, seed=5)
        config = LocalTrainingConfig(batch_size=5, local_epochs=2,
                                     learning_rate=1e-2)
        state = client.local_train(mlp_factory(), config, round_index=3)
        expected = reference_local_train(client, mlp_factory(), config,
                                         round_index=3)
        for name, value in expected.items():
            np.testing.assert_array_equal(state[name], value)


class TestAggregation:
    def test_uniform_average(self):
        a = {"w": np.array([1.0, 2.0]), "b": np.array([0.0])}
        b = {"w": np.array([3.0, 4.0]), "b": np.array([2.0])}
        avg = average_states([a, b])
        np.testing.assert_allclose(avg["w"], [2.0, 3.0])
        np.testing.assert_allclose(avg["b"], [1.0])

    def test_weighted_average(self):
        a = {"w": np.array([0.0])}
        b = {"w": np.array([10.0])}
        avg = weighted_average_states([a, b], [3, 1])
        np.testing.assert_allclose(avg["w"], [2.5])

    def test_average_is_linear_fixed_point(self):
        # averaging identical states returns the same state
        state = {"w": np.array([5.0, -1.0])}
        np.testing.assert_allclose(average_states([state, state, state])["w"], state["w"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_states([])

    def test_key_mismatch_rejected(self):
        with pytest.raises(KeyError):
            average_states([{"w": np.zeros(2)}, {"v": np.zeros(2)}])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_states([{"w": np.zeros(2)}, {"w": np.zeros(3)}])

    def test_weighted_invalid_weights(self):
        states = [{"w": np.zeros(1)}, {"w": np.zeros(1)}]
        with pytest.raises(ValueError):
            weighted_average_states(states, [1])
        with pytest.raises(ValueError):
            weighted_average_states(states, [0, 0])
        with pytest.raises(ValueError):
            weighted_average_states(states, [-1, 2])

    def test_state_difference_norm(self):
        a = {"w": np.array([1.0, 0.0])}
        b = {"w": np.array([0.0, 0.0])}
        assert state_difference_norm(a, b) == pytest.approx(1.0)
        with pytest.raises(KeyError):
            state_difference_norm(a, {"v": np.zeros(2)})


class TestFederatedServer:
    def test_global_state_roundtrip(self):
        server = FederatedServer(mlp_factory)
        state = server.global_state()
        assert set(state) == set(server.global_model.state_dict())

    def test_aggregate_updates_global_model(self):
        server = FederatedServer(mlp_factory)
        state = server.global_state()
        shifted = {k: v + 1.0 for k, v in state.items()}
        server.aggregate([shifted, state])
        merged = server.global_state()
        np.testing.assert_allclose(
            merged[next(iter(merged))], state[next(iter(state))] + 0.5
        )
        assert server.rounds_completed == 1

    def test_empty_aggregate_rejected(self):
        server = FederatedServer(mlp_factory)
        with pytest.raises(ValueError):
            server.aggregate([])

    def test_evaluate_runs(self):
        gen = make_synthetic_mnist(seed=0)
        test = make_uniform_test_set(gen, samples_per_class=3, seed=0)
        flat_test = ArrayDataset(test.x.reshape(len(test), -1), test.y, num_classes=10)
        server = FederatedServer(mlp_factory)
        result = server.evaluate(flat_test)
        assert 0.0 <= result["accuracy"] <= 1.0


class TestExecutor:
    def _setup(self, n_clients=3):
        gen = make_synthetic_mnist(seed=0)
        clients = []
        for k in range(n_clients):
            ds = gen.generate([2] * 10, rng=np.random.default_rng(k))
            flat = ArrayDataset(ds.x.reshape(len(ds), -1), ds.y, num_classes=10)
            clients.append(FederatedClient(k, 10, dataset=flat, seed=k))
        return clients

    def test_sequential_round(self):
        clients = self._setup()
        server = FederatedServer(mlp_factory)
        executor = LocalUpdateExecutor("sequential")
        outcome = executor.run_round(
            clients, server.new_client_model, server.global_state(), LocalTrainingConfig()
        )
        assert len(outcome.states) == 3
        assert outcome.failures == {} and outcome.fallback_reason is None

    def test_empty_client_list(self):
        assert LocalUpdateExecutor().run_round(
            [], mlp_factory, {}, LocalTrainingConfig()
        ).states == []

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            LocalUpdateExecutor("gpu")
