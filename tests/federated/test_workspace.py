"""Round-persistent vectorized runtime: workspace reuse and restacking."""

import numpy as np
import pytest

from repro.data.cohort import CohortBuffer, CohortShapeError, DatasetCache
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import make_synthetic_mnist
from repro.federated.client import FederatedClient, LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.federated.server import FederatedServer
from repro.federated.workspace import CohortWorkspace
from repro.nn.models import MLP, MnistCNN

TOL = 1e-10


def mlp_factory():
    return MLP(64, 10, hidden=(16,), seed=7)


def cnn_factory():
    return MnistCNN(1, 8, 10, channels=(3, 5), hidden=12, dropout=0.25, seed=7)


def make_clients(n_clients=4, samples_per_class=3, cache=None, lazy=False):
    gen = make_synthetic_mnist(seed=0)
    clients = []
    for k in range(n_clients):
        if lazy:
            def factory(k=k):
                return gen.generate([samples_per_class] * 10,
                                    rng=np.random.default_rng(k))

            clients.append(FederatedClient(k, 10, dataset_factory=factory,
                                           seed=1000 + k, cache=cache))
        else:
            clients.append(FederatedClient(
                k, 10,
                dataset=gen.generate([samples_per_class] * 10,
                                     rng=np.random.default_rng(k)),
                seed=1000 + k,
            ))
    return clients


def run_rounds(executor, clients_per_round, factory, config, server=None):
    """Drive *executor* through one round per entry of *clients_per_round*."""
    server = server or FederatedServer(factory)
    per_round = []
    for r, clients in enumerate(clients_per_round):
        states = executor.run_round(clients, factory, server.global_state(),
                                    config, round_index=r)
        per_round.append([{k: v.copy() for k, v in s.items()} for s in states])
        server.aggregate(states)
    return per_round, server


class TestWorkspaceReuse:
    def test_consecutive_rounds_allocate_no_new_pools(self):
        # the PR's headline regression test: round 2 must run entirely inside
        # round 1's allocations
        clients = make_clients()
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        executor.run_round(clients, mlp_factory, server.global_state(), config,
                           round_index=0)
        workspace = executor.workspace
        assert isinstance(workspace, CohortWorkspace)
        values = workspace.model.flat_values
        grads = workspace.model.flat_grads
        x_buffer = workspace.buffer.x
        optimizer = workspace.optimizer_for(config)
        executor.run_round(clients, mlp_factory, server.global_state(), config,
                           round_index=1)
        assert executor.workspace is workspace
        assert executor.workspace_builds == 1
        assert workspace.model.flat_values is values
        assert workspace.model.flat_grads is grads
        assert workspace.buffer.x is x_buffer
        assert workspace.buffer.allocations == 1
        assert workspace.optimizer_for(config) is optimizer
        assert workspace.rounds_bound >= 2

    def test_stable_selection_restacks_nothing(self):
        clients = make_clients()
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        for r in range(3):
            executor.run_round(clients, mlp_factory, server.global_state(),
                               config, round_index=r)
        buffer = executor.workspace.buffer
        assert buffer.restacked == len(clients)  # round 1 only
        assert buffer.reused == 2 * len(clients)  # rounds 2 and 3

    def test_changed_slots_restack_only_changed(self):
        pool = make_clients(6)
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        executor.run_round(pool[:4], mlp_factory, server.global_state(), config,
                           round_index=0)
        buffer = executor.workspace.buffer
        restacked_before = buffer.restacked
        # swap only the last slot
        executor.run_round(pool[:3] + [pool[5]], mlp_factory,
                           server.global_state(), config, round_index=1)
        assert buffer.restacked == restacked_before + 1
        assert executor.workspace_builds == 1

    def test_cohort_size_change_rebuilds(self):
        pool = make_clients(6)
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        executor.run_round(pool[:4], mlp_factory, server.global_state(), config)
        executor.run_round(pool[:3], mlp_factory, server.global_state(), config)
        assert executor.workspace_builds == 2
        assert executor.workspace.num_clients == 3

    def test_model_change_rebuilds(self):
        clients = make_clients()
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        wide_factory = lambda: MLP(64, 10, hidden=(24,), seed=7)  # noqa: E731
        executor.run_round(clients, mlp_factory,
                           FederatedServer(mlp_factory).global_state(), config)
        executor.run_round(clients, wide_factory,
                           FederatedServer(wide_factory).global_state(), config)
        assert executor.workspace_builds == 2

    def test_optimizer_switch_is_exact(self):
        # adam -> sgd mid-run rebuilds the optimiser, not the workspace
        clients = make_clients()
        executor = LocalUpdateExecutor("vectorized")
        server = FederatedServer(mlp_factory)
        adam = LocalTrainingConfig(learning_rate=1e-3)
        sgd = LocalTrainingConfig(learning_rate=1e-2, optimizer="sgd")
        executor.run_round(clients, mlp_factory, server.global_state(), adam,
                           round_index=0)
        vec = executor.run_round(make_clients(), mlp_factory,
                                 server.global_state(), sgd, round_index=1)
        seq = LocalUpdateExecutor("sequential").run_round(
            make_clients(), mlp_factory, server.global_state(), sgd,
            round_index=1)
        assert executor.workspace_builds == 1
        for a, b in zip(seq, vec):
            for key in a:
                np.testing.assert_allclose(a[key], b[key], atol=TOL, rtol=0)


class TestMultiRoundEquivalence:
    @pytest.mark.parametrize("factory", [mlp_factory, cnn_factory],
                             ids=["mlp", "mnist_cnn"])
    def test_three_rounds_changing_selection_match_sequential(self, factory):
        # >= 3 rounds through ONE persistent vectorized executor, selection
        # changing every round, must match per-round sequential states and the
        # final aggregated model to <= 1e-10
        schedule = [(0, 1, 2), (1, 2, 4), (3, 0, 5)]
        config = LocalTrainingConfig(batch_size=8, local_epochs=1,
                                     learning_rate=1e-3)

        pool_vec = make_clients(6)
        executor = LocalUpdateExecutor("vectorized")
        vec_rounds, vec_server = run_rounds(
            executor, [[pool_vec[i] for i in sel] for sel in schedule],
            factory, config)
        assert executor.last_fallback_reason is None
        assert executor.workspace_builds == 1

        pool_seq = make_clients(6)
        seq_rounds, seq_server = run_rounds(
            LocalUpdateExecutor("sequential"),
            [[pool_seq[i] for i in sel] for sel in schedule], factory, config)

        for seq_states, vec_states in zip(seq_rounds, vec_rounds):
            for a, b in zip(seq_states, vec_states):
                for key in a:
                    np.testing.assert_allclose(a[key], b[key], atol=TOL, rtol=0)
        seq_state = seq_server.global_state()
        vec_state = vec_server.global_state()
        for key in seq_state:
            np.testing.assert_allclose(seq_state[key], vec_state[key],
                                       atol=TOL, rtol=0)

    def test_cached_lazy_clients_reuse_slots_across_rounds(self):
        cache = DatasetCache(8)
        clients = make_clients(4, cache=cache, lazy=True)
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        for r in range(3):
            executor.run_round(clients, mlp_factory, server.global_state(),
                               config, round_index=r)
        # cache keeps the dataset objects alive, so slots stay fresh
        assert executor.workspace.buffer.restacked == 4
        assert cache.misses == 4
        assert cache.hits >= 8


class TestRaggedFallbackThroughWorkspace:
    def test_ragged_round_falls_back_and_workspace_survives(self):
        gen = make_synthetic_mnist(seed=0)
        dense = make_clients(2)
        ragged = [
            dense[0],
            FederatedClient(9, 10, dataset=gen.generate([4] * 10,
                            rng=np.random.default_rng(9)), seed=1009),
        ]
        executor = LocalUpdateExecutor("vectorized")
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)

        executor.run_round(dense, mlp_factory, server.global_state(), config,
                           round_index=0)
        workspace = executor.workspace
        assert executor.last_fallback_reason is None

        vec = executor.run_round(ragged, mlp_factory, server.global_state(),
                                 config, round_index=1)
        assert executor.last_fallback_reason is not None
        seq = LocalUpdateExecutor("sequential").run_round(
            [FederatedClient(0, 10, dataset=ragged[0].dataset, seed=1000),
             FederatedClient(9, 10, dataset=ragged[1].dataset, seed=1009)],
            mlp_factory, server.global_state(), config, round_index=1)
        for a, b in zip(seq, vec):
            for key in a:
                np.testing.assert_allclose(a[key], b[key], atol=TOL, rtol=0)

        # the workspace is intact and serves the next dense round
        vec2 = executor.run_round(dense, mlp_factory, server.global_state(),
                                  config, round_index=2)
        assert executor.last_fallback_reason is None
        assert executor.workspace is workspace
        seq2 = LocalUpdateExecutor("sequential").run_round(
            make_clients(2), mlp_factory, server.global_state(), config,
            round_index=2)
        for a, b in zip(seq2, vec2):
            for key in a:
                np.testing.assert_allclose(a[key], b[key], atol=TOL, rtol=0)


class TestFloat64Pools:
    def test_states_are_float64_and_match_the_reference(self):
        clients = make_clients()
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        executor = LocalUpdateExecutor("vectorized")
        vec = executor.run_round(clients, mlp_factory, server.global_state(),
                                 config, round_index=0)
        assert executor.last_fallback_reason is None
        seq = LocalUpdateExecutor("sequential").run_round(
            make_clients(), mlp_factory, server.global_state(), config,
            round_index=0)
        for a, b in zip(seq, vec):
            for key in a:
                assert b[key].dtype == np.float64
                np.testing.assert_allclose(b[key], a[key], atol=TOL, rtol=0)

    def test_every_pool_is_float64_for_float32_client_data(self):
        clients = make_clients()
        assert clients[0].dataset.x.dtype == np.float32
        config = LocalTrainingConfig(learning_rate=1e-3)
        server = FederatedServer(mlp_factory)
        executor = LocalUpdateExecutor("vectorized")
        executor.run_round(clients, mlp_factory, server.global_state(), config,
                           round_index=0)
        workspace = executor.workspace
        optimizer = workspace.optimizer_for(config)
        for pool in (workspace.model.flat_values, workspace.model.flat_grads,
                     workspace.buffer.x, optimizer._m, optimizer._v):
            assert pool.dtype == np.float64


class TestCohortBuffer:
    def test_rejects_wrong_slot_count(self):
        buffer = CohortBuffer(2)
        (key, ds) = make_clients(1)[0].cohort_slot()
        with pytest.raises(CohortShapeError):
            buffer.stack([(key, ds)])

    def test_ragged_slots_raise(self):
        gen = make_synthetic_mnist(seed=0)
        a = gen.generate([3] * 10, rng=np.random.default_rng(0))
        b = gen.generate([4] * 10, rng=np.random.default_rng(1))
        buffer = CohortBuffer(2)
        with pytest.raises(CohortShapeError):
            buffer.stack([(("a", 0), a), (("b", 0), b)])

    def test_mismatched_feature_shapes_raise(self):
        rng = np.random.default_rng(0)
        a = ArrayDataset(rng.standard_normal((4, 2, 3, 3)),
                         rng.integers(0, 4, 4), num_classes=4)
        b = ArrayDataset(rng.standard_normal((4, 1, 3, 3)),
                         rng.integers(0, 4, 4), num_classes=4)
        with pytest.raises(CohortShapeError):
            CohortBuffer(2).stack([("a", a), ("b", b)])

    def test_contents_match_datasets(self):
        clients = make_clients(3)
        buffer = CohortBuffer(3)
        x, y = buffer.stack([c.cohort_slot() for c in clients])
        for k, client in enumerate(clients):
            np.testing.assert_array_equal(x[k], client.dataset.x)
            np.testing.assert_array_equal(y[k], client.dataset.y)

    def test_features_are_cast_to_float64_on_the_copy(self):
        clients = make_clients(2)
        buffer = CohortBuffer(2)
        x, _ = buffer.stack([c.cohort_slot() for c in clients])
        assert clients[0].dataset.x.dtype == np.float32
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x[0], clients[0].dataset.x)

    def test_invalid_num_clients(self):
        with pytest.raises(ValueError):
            CohortBuffer(0)
