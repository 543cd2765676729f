"""Vectorized-vs-sequential equivalence tests for the cohort execution back-end."""

import numpy as np
import pytest

from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions
from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.federated.aggregation import StackedClientStates, average_states
from repro.federated.client import FederatedClient, LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.federated.server import FederatedServer
from repro.federated import simulation as simulation_module
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.nn.batched import UnvectorizableModelError
from repro.nn.layers import Linear
from repro.nn.models import MLP, CifarCNN
from repro.nn.module import Module

from reference.sequential_nn import evaluate_model
from reference.sequential_nn import run_round as reference_round

TOL = 1e-10

MODEL_FACTORIES = {
    "mlp": lambda: MLP(64, 10, hidden=(16,), seed=7),
    "cifar_cnn_1ch": lambda: CifarCNN(1, 8, 10, channels=(3, 5, 5), hidden=12,
                                      seed=7),
}


def make_clients(n_clients=4, samples_per_class=3, generator_seed=0):
    gen = make_synthetic_mnist(seed=generator_seed)
    return [
        FederatedClient(
            k, 10,
            dataset=gen.generate([samples_per_class] * 10, rng=np.random.default_rng(k)),
            seed=1000 + k,
        )
        for k in range(n_clients)
    ]


def assert_states_match(a_states, b_states, tol=TOL):
    assert len(a_states) == len(b_states)
    for a, b in zip(a_states, b_states):
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_allclose(a[key], b[key], atol=tol, rtol=0)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    @pytest.mark.parametrize("config", [
        LocalTrainingConfig(batch_size=8, local_epochs=1, learning_rate=1e-3),
        LocalTrainingConfig(batch_size=8, local_epochs=2, learning_rate=1e-3),
        LocalTrainingConfig(batch_size=8, learning_rate=1e-2, optimizer="sgd"),
        LocalTrainingConfig(batch_size=5, local_epochs=2, learning_rate=1e-3,
                            max_batches_per_epoch=3),
    ], ids=["adam", "two-epochs", "sgd", "ragged-batch-cap"])
    def test_per_client_states_match_sequential(self, model_name, config):
        factory = MODEL_FACTORIES[model_name]
        server = FederatedServer(factory)
        global_state = server.global_state()
        seq = reference_round(
            make_clients(), factory, global_state, config, round_index=2
        )
        executor = LocalUpdateExecutor("vectorized")
        outcome = executor.run_round(
            make_clients(), factory, global_state, config, round_index=2
        )
        assert outcome.fallback_reason is None
        vec = outcome.states
        assert_states_match(seq, vec)
        agg_seq = average_states(seq)
        agg_vec = average_states(vec)
        for key in agg_seq:
            np.testing.assert_allclose(agg_seq[key], agg_vec[key], atol=TOL, rtol=0)

    def test_returns_stacked_states_with_views(self):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        states = LocalUpdateExecutor("vectorized").run_round(
            make_clients(3), factory, server.global_state(), LocalTrainingConfig()
        ).states
        assert isinstance(states, StackedClientStates)
        for name, stacked in states.stacked.items():
            assert stacked.shape[0] == 3
            for k in range(3):
                # per-client entries are views into the stacked array
                assert states[k][name].base is not None
                np.testing.assert_array_equal(states[k][name], stacked[k])

    def test_round_index_changes_batch_order(self):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-2)
        a = LocalUpdateExecutor("vectorized").run_round(
            make_clients(), factory, server.global_state(), config, round_index=0
        ).states
        b = LocalUpdateExecutor("vectorized").run_round(
            make_clients(), factory, server.global_state(), config, round_index=1
        ).states
        key = next(iter(a[0]))
        assert not np.allclose(a[0][key], b[0][key])


class TestVectorizedFallback:
    def test_ragged_cohort_falls_back_to_sequential(self):
        gen = make_synthetic_mnist(seed=0)
        clients = [
            FederatedClient(0, 10, dataset=gen.generate([3] * 10,
                            rng=np.random.default_rng(0)), seed=1),
            FederatedClient(1, 10, dataset=gen.generate([4] * 10,
                            rng=np.random.default_rng(1)), seed=2),
        ]
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-3)
        executor = LocalUpdateExecutor("vectorized")
        outcome = executor.run_round(clients, factory, server.global_state(),
                                     config)
        assert outcome.fallback_reason is not None
        vec = outcome.states
        seq = reference_round(
            [FederatedClient(0, 10, dataset=clients[0].dataset, seed=1),
             FederatedClient(1, 10, dataset=clients[1].dataset, seed=2)],
            factory, server.global_state(), config,
        )
        assert_states_match(seq, vec)

    @pytest.mark.parametrize("mode", ["sequential", "vectorized"])
    def test_unvectorizable_model_raises(self, mode):
        # a model that is no layer chain has no training kernel
        class Squared(Module):
            def __init__(self):
                self.lin = Linear(64, 10, seed=0)

            def forward(self, x):
                return self.lin.weight.value.sum() * x

        server = FederatedServer(Squared)
        executor = LocalUpdateExecutor(mode)
        with pytest.raises(UnvectorizableModelError):
            executor.run_round(make_clients(2), Squared, server.global_state(),
                               LocalTrainingConfig())

    def test_empty_client_list(self):
        assert LocalUpdateExecutor("vectorized").run_round(
            [], MODEL_FACTORIES["mlp"], {}, LocalTrainingConfig()
        ).states == []


@pytest.fixture(scope="module")
def sim_setup():
    generator = make_synthetic_mnist(seed=0)
    global_dist = half_normal_class_proportions(10, 5.0)
    partition = EMDTargetPartitioner(10, 24, 1.0, seed=0).partition(global_dist)
    test_set = make_uniform_test_set(generator, samples_per_class=4, seed=1)
    return generator, partition, test_set


class RoundRobinSelector:
    def __init__(self, n_clients, k):
        self.n_clients = n_clients
        self.k = k

    def select(self, round_index):
        start = (round_index * self.k) % self.n_clients
        return [(start + i) % self.n_clients for i in range(self.k)]


def run_simulation(sim_setup, mode, rounds=2):
    generator, partition, test_set = sim_setup
    sim = FederatedSimulation(
        partition=partition,
        generator=generator,
        model_factory=lambda: MLP(64, 10, hidden=(16,), seed=5),
        selector=RoundRobinSelector(partition.n_clients, 4),
        test_set=test_set,
        config=FederatedConfig(
            rounds=rounds,
            eval_every=1,
            local=LocalTrainingConfig(batch_size=8, learning_rate=1e-3),
            executor_mode=mode,
            seed=0,
        ),
    )
    return sim, sim.run()


class TestSimulationExecutorModes:
    @pytest.mark.parametrize("mode", ["sequential", "vectorized"])
    def test_run_smoke(self, sim_setup, mode):
        sim, history = run_simulation(sim_setup, mode)
        assert len(history) == 2
        assert all(r.test_accuracy is not None for r in history.records)

    def test_vectorized_matches_sequential_curves(self, sim_setup):
        # NOTE: partitions with equal-size virtual clients stack into a dense
        # cohort, so the vectorized run never falls back and the accuracy
        # curves must agree with sequential execution
        sim_seq, hist_seq = run_simulation(sim_setup, "sequential", rounds=3)
        sim_vec, hist_vec = run_simulation(sim_setup, "vectorized", rounds=3)
        assert hist_vec.fallback_reasons() == []
        np.testing.assert_allclose(hist_seq.accuracies(), hist_vec.accuracies(),
                                   atol=TOL)
        seq_state = sim_seq.server.global_state()
        vec_state = sim_vec.server.global_state()
        for key in seq_state:
            np.testing.assert_allclose(seq_state[key], vec_state[key], atol=TOL,
                                       rtol=0)

    def test_dataset_cache_is_shared_and_bounded(self, sim_setup,
                                                 monkeypatch):
        generator, partition, test_set = sim_setup
        monkeypatch.setattr(simulation_module, "DATASET_CACHE_SIZE", 3)
        sim = FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=5),
            selector=RoundRobinSelector(partition.n_clients, 4),
            test_set=test_set,
            config=FederatedConfig(
                rounds=3,
                local=LocalTrainingConfig(learning_rate=1e-3),
                seed=0,
            ),
        )
        sim.run()
        assert sim.dataset_cache.capacity == 3
        assert len(sim.dataset_cache._entries) <= 3
        assert sim.dataset_cache.hits + sim.dataset_cache.misses > 0

    def test_every_client_draws_on_the_one_cache(self, sim_setup):
        generator, partition, test_set = sim_setup
        sim = FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=5),
            selector=RoundRobinSelector(partition.n_clients, 2),
            test_set=test_set,
            config=FederatedConfig(rounds=1, seed=0),
        )
        assert sim.dataset_cache.capacity == simulation_module.DATASET_CACHE_SIZE
        assert simulation_module.DATASET_CACHE_SIZE == 1024
        sim.run_round(0)
        assert sim.dataset_cache.misses == 2
        assert sim.client(0).dataset is sim.client(0).dataset
        assert sim.dataset_cache.hits >= 2

    def test_workspace_persists_across_simulation_rounds(self, sim_setup):
        sim, _ = run_simulation(sim_setup, "vectorized", rounds=3)
        assert sim.executor.workspace_builds == 1
        assert sim.executor.workspace is not None

    def test_batched_eval_matches_the_sequential_loop(self, sim_setup):
        generator, partition, test_set = sim_setup
        sim = FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=5),
            selector=RoundRobinSelector(partition.n_clients, 4),
            test_set=test_set,
            config=FederatedConfig(
                rounds=2,
                local=LocalTrainingConfig(batch_size=8, learning_rate=1e-3),
                executor_mode="vectorized",
                seed=0,
            ),
        )
        for round_index in range(2):
            record = sim.run_round(round_index)
            expected = evaluate_model(sim.server.global_model, test_set)
            assert record.test_accuracy == expected["accuracy"]


class TestDefaultEngine:
    def test_default_config_trains_a_dense_cohort_vectorized(self, sim_setup):
        generator, partition, test_set = sim_setup
        sim = FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=5),
            selector=RoundRobinSelector(partition.n_clients, 4),
            test_set=test_set,
            config=FederatedConfig(
                rounds=3, local=LocalTrainingConfig(batch_size=8, learning_rate=1e-3),
                seed=0,
            ),
        )
        history = sim.run()
        assert sim.executor.mode == "vectorized"
        assert sim.executor.workspace_builds == 1
        assert history.fallback_reasons() == []
        sim_seq, hist_seq = run_simulation(sim_setup, "sequential", rounds=3)
        np.testing.assert_array_equal(history.accuracies(), hist_seq.accuracies())
        seq_state = sim_seq.server.global_state()
        for key, value in sim.server.global_state().items():
            np.testing.assert_array_equal(value, seq_state[key])

    def test_default_executor_falls_back_on_a_ragged_cohort(self):
        gen = make_synthetic_mnist(seed=0)
        datasets = [gen.generate([n] * 10, rng=np.random.default_rng(n)) for n in (3, 4)]

        def clients():
            return [FederatedClient(k, 10, dataset=ds, seed=k + 1)
                    for k, ds in enumerate(datasets)]

        factory = MODEL_FACTORIES["mlp"]
        global_state = FederatedServer(factory).global_state()
        config = LocalTrainingConfig(learning_rate=1e-3)
        executor = LocalUpdateExecutor()
        assert executor.mode == "vectorized"
        outcome = executor.run_round(clients(), factory, global_state, config)
        assert "ragged" in outcome.fallback_reason
        states = outcome.states
        # the shape is checked before any pool is built
        assert executor.workspace_builds == 0
        assert executor.workspace is None
        reference = reference_round(
            clients(), factory, global_state, config)
        for state, ref in zip(states, reference):
            for key in ref:
                np.testing.assert_array_equal(state[key], ref[key])
