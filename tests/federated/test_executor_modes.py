"""Both in-process back-ends against the sequential reference.

``LocalUpdateExecutor`` has two modes, ``"sequential"`` (each client a
K = 1 cohort through :meth:`FederatedClient.local_train`) and
``"vectorized"`` (the whole cohort as one batched program in a warm
workspace).  These tests hold each mode to
``tests/reference/sequential_nn.py`` at the edges of a round: every local
training config, cohort sizes 1 and 7, failed positions anywhere in the
cohort, a round that raises part-way, and an executor used after
:meth:`close`.
"""

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.federated.aggregation import StackedClientStates, average_states
from repro.federated.client import FederatedClient, LocalTrainingConfig
from repro.federated.executor import EXECUTOR_MODES, LocalUpdateExecutor
from repro.federated.server import FederatedServer
from repro.nn.batched import BatchedAdam
from repro.nn.models import MLP, CifarCNN

from reference.sequential_nn import run_round as reference_round

TOL = 1e-10

MODEL_FACTORIES = {
    "mlp": lambda: MLP(64, 10, hidden=(16,), seed=7),
    "cifar_cnn_1ch": lambda: CifarCNN(1, 8, 10, channels=(3, 5, 5), hidden=12,
                                      seed=7),
}

CONFIG = LocalTrainingConfig(batch_size=8, learning_rate=1e-3)


def make_clients(n_clients=4, samples_per_class=3):
    gen = make_synthetic_mnist(seed=0)
    return [
        FederatedClient(
            k, 10,
            dataset=gen.generate([samples_per_class] * 10,
                                 rng=np.random.default_rng(k)),
            seed=1000 + k,
        )
        for k in range(n_clients)
    ]


def make_ragged_clients():
    """Two clients whose datasets differ in length: no dense cohort."""
    gen = make_synthetic_mnist(seed=0)
    return [
        FederatedClient(k, 10, dataset=gen.generate(
            [3 + k] * 10, rng=np.random.default_rng(k)), seed=1000 + k)
        for k in range(3)
    ]


def assert_states_match(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_allclose(b[key], a[key], atol=TOL, rtol=0)


class TestSequentialModeMatchesTheReference:
    # the vectorized mode's grid lives in test_vectorized_executor.py
    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    @pytest.mark.parametrize("config", [
        LocalTrainingConfig(batch_size=8, local_epochs=1, learning_rate=1e-3),
        LocalTrainingConfig(batch_size=8, local_epochs=2, learning_rate=1e-3),
        LocalTrainingConfig(batch_size=8, learning_rate=1e-2, optimizer="sgd"),
        LocalTrainingConfig(batch_size=5, local_epochs=2, learning_rate=1e-3,
                            max_batches_per_epoch=3),
    ], ids=["adam", "two-epochs", "sgd", "ragged-batch-cap"])
    def test_per_client_states_match(self, model_name, config):
        factory = MODEL_FACTORIES[model_name]
        global_state = FederatedServer(factory).global_state()
        expected = reference_round(make_clients(), factory, global_state,
                                   config, round_index=2)
        actual = LocalUpdateExecutor("sequential").run_round(
            make_clients(), factory, global_state, config, round_index=2).states
        assert_states_match(expected, actual)


class TestCohortSizes:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    @pytest.mark.parametrize("n_clients", [1, 7])
    def test_cohort_matches_the_reference(self, mode, model_name, n_clients):
        factory = MODEL_FACTORIES[model_name]
        global_state = FederatedServer(factory).global_state()
        expected = reference_round(make_clients(n_clients), factory,
                                   global_state, CONFIG, round_index=1)
        executor = LocalUpdateExecutor(mode)
        outcome = executor.run_round(make_clients(n_clients), factory,
                                     global_state, CONFIG, round_index=1)
        assert outcome.fallback_reason is None
        assert_states_match(expected, outcome.states)
        if mode == "vectorized":
            assert executor.workspace.num_clients == n_clients


class TestFailedPositions:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    @pytest.mark.parametrize("failed", [(0,), (3,), (1, 2), (0, 1, 2, 3)],
                             ids=["first", "last", "middle-pair", "all"])
    def test_survivors_match_a_round_without_the_failed(self, mode, failed):
        factory = MODEL_FACTORIES["mlp"]
        global_state = FederatedServer(factory).global_state()
        expected = reference_round(make_clients(), factory, global_state,
                                   CONFIG, round_index=1, failed=failed)
        actual = LocalUpdateExecutor(mode).run_round(
            make_clients(), factory, global_state, CONFIG, round_index=1,
            failed=failed).states
        assert len(expected) == 4 - len(failed)
        assert_states_match(expected, actual)
        if isinstance(actual, StackedClientStates):
            # the stacks hold exactly the survivors, so aggregation's
            # mean over the client axis averages nobody who failed
            assert all(stack.shape[0] == len(expected)
                       for stack in actual.stacked.values())
        if expected:
            aggregate = average_states(actual)
            for key, value in average_states(expected).items():
                np.testing.assert_allclose(aggregate[key], value, atol=TOL,
                                           rtol=0)

    def test_a_round_with_failures_keeps_the_workspace_warm(self):
        factory = MODEL_FACTORIES["mlp"]
        global_state = FederatedServer(factory).global_state()
        executor = LocalUpdateExecutor("vectorized")
        executor.run_round(make_clients(), factory, global_state, CONFIG,
                           round_index=0, failed=(1, 3))
        workspace = executor.workspace
        actual = executor.run_round(make_clients(), factory, global_state,
                                    CONFIG, round_index=1).states
        # the failed rows were trained and dropped, not cut from the cohort
        assert executor.workspace is workspace
        assert executor.workspace_builds == 1
        assert_states_match(reference_round(make_clients(), factory,
                                            global_state, CONFIG,
                                            round_index=1), actual)

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_a_ragged_round_drops_the_failed_too(self, mode):
        factory = MODEL_FACTORIES["mlp"]
        global_state = FederatedServer(factory).global_state()
        expected = reference_round(make_ragged_clients(), factory,
                                   global_state, CONFIG, failed=(1,))
        outcome = LocalUpdateExecutor(mode).run_round(
            make_ragged_clients(), factory, global_state, CONFIG, failed=(1,))
        if mode == "vectorized":
            assert "ragged" in outcome.fallback_reason
        assert len(outcome.states) == 2
        assert_states_match(expected, outcome.states)


class TestLifecycle:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_a_round_that_raises_part_way_leaves_no_state_behind(
            self, mode, monkeypatch):
        # the optimiser fails on its third step: weights and Adam moments
        # are half-updated when the round unwinds
        factory = MODEL_FACTORIES["mlp"]
        global_state = FederatedServer(factory).global_state()
        executor = LocalUpdateExecutor(mode)
        executor.run_round(make_clients(), factory, global_state, CONFIG,
                           round_index=0)
        step = BatchedAdam.step
        calls = []

        def failing_step(self):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("optimiser failed part-way")
            step(self)

        monkeypatch.setattr(BatchedAdam, "step", failing_step)
        with pytest.raises(RuntimeError, match="part-way"):
            executor.run_round(make_clients(), factory, global_state, CONFIG,
                               round_index=1)
        monkeypatch.undo()

        actual = executor.run_round(make_clients(), factory, global_state,
                                    CONFIG, round_index=1).states
        assert_states_match(reference_round(make_clients(), factory,
                                            global_state, CONFIG,
                                            round_index=1), actual)

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_close_is_idempotent_and_the_executor_stays_usable(self, mode):
        factory = MODEL_FACTORIES["mlp"]
        global_state = FederatedServer(factory).global_state()
        executor = LocalUpdateExecutor(mode)
        executor.run_round(make_clients(), factory, global_state, CONFIG)
        executor.close()
        executor.close()
        actual = executor.run_round(make_clients(), factory, global_state,
                                    CONFIG, round_index=1).states
        assert_states_match(reference_round(make_clients(), factory,
                                            global_state, CONFIG,
                                            round_index=1), actual)
