"""Determinism, sharding and fallback tests for executor_mode="parallel"."""

import numpy as np
import pytest

from repro.core.config import partition_cohort, resolve_num_workers
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions
from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.federated.aggregation import StackedClientStates, average_states
from repro.federated.client import FederatedClient, LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.federated.scheduler import CohortScheduler, SchedulerError
from repro.federated.server import FederatedServer
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.models import MLP, CifarCNN

from reference.sequential_nn import run_round as reference_round

TOL = 1e-10

MODEL_FACTORIES = {
    "mlp": lambda: MLP(64, 10, hidden=(16,), seed=7),
    "cifar_cnn_1ch": lambda: CifarCNN(1, 8, 10, channels=(3, 5, 5), hidden=12,
                                      seed=7),
}


def make_clients(n_clients=5, samples_per_class=3, generator_seed=0):
    gen = make_synthetic_mnist(seed=generator_seed)
    return [
        FederatedClient(
            k, 10,
            dataset=gen.generate([samples_per_class] * 10,
                                 rng=np.random.default_rng(k)),
            seed=1000 + k,
        )
        for k in range(n_clients)
    ]


def assert_states_match(a_states, b_states):
    assert len(a_states) == len(b_states)
    for a, b in zip(a_states, b_states):
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_allclose(a[key], b[key], atol=TOL, rtol=0)


@pytest.fixture
def parallel_executor():
    executor = LocalUpdateExecutor("parallel", num_workers=2)
    yield executor
    executor.close()


class TestShardPartition:
    def test_even_split(self):
        shards = partition_cohort(8, 2)
        assert [list(s) for s in shards] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_remainder_goes_to_leading_shards(self):
        shards = partition_cohort(7, 3)
        assert [len(s) for s in shards] == [3, 2, 2]
        assert sorted(np.concatenate(shards)) == list(range(7))

    def test_fewer_clients_than_workers(self):
        shards = partition_cohort(3, 8)
        assert [len(s) for s in shards] == [1, 1, 1]

    def test_shards_are_a_bijection(self):
        for k, w in [(1, 1), (5, 2), (16, 5), (4, 9)]:
            shards = partition_cohort(k, w)
            assert sorted(np.concatenate(shards)) == list(range(k))
            assert all(len(s) > 0 for s in shards)

    def test_invalid_cohort_rejected(self):
        with pytest.raises(ValueError):
            partition_cohort(0, 2)
        with pytest.raises(ValueError):
            partition_cohort(4, 0)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            resolve_num_workers(0)
        assert resolve_num_workers() >= 1
        assert resolve_num_workers(3) == 3


class TestParallelEquivalence:
    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    def test_per_client_states_match_vectorized(self, model_name,
                                                parallel_executor):
        factory = MODEL_FACTORIES[model_name]
        server = FederatedServer(factory)
        global_state = server.global_state()
        config = LocalTrainingConfig(batch_size=8, learning_rate=1e-3)
        vec = LocalUpdateExecutor("vectorized").run_round(
            make_clients(), factory, global_state, config, round_index=2
        )
        par = parallel_executor.run_round(
            make_clients(), factory, global_state, config, round_index=2
        )
        assert parallel_executor.last_fallback_reason is None
        assert isinstance(par, StackedClientStates)
        assert_states_match(vec, par)
        agg_vec = average_states(vec)
        agg_par = average_states(par)
        for key in agg_vec:
            np.testing.assert_allclose(agg_vec[key], agg_par[key], atol=TOL,
                                       rtol=0)

    def test_three_rounds_changing_selection_match_vectorized(self):
        factory = MODEL_FACTORIES["mlp"]
        config = LocalTrainingConfig(batch_size=8, learning_rate=1e-3)
        pool = make_clients(8)
        pool_vec = make_clients(8)
        selections = [[0, 1, 2, 3], [2, 3, 4, 5], [7, 0, 5, 1]]

        par_server = FederatedServer(factory)
        vec_server = FederatedServer(factory)
        par_exec = LocalUpdateExecutor("parallel", num_workers=2)
        vec_exec = LocalUpdateExecutor("vectorized")
        try:
            for r, picks in enumerate(selections):
                par_server.aggregate(par_exec.run_round(
                    [pool[i] for i in picks], factory,
                    par_server.global_state(copy=False), config, round_index=r))
                vec_server.aggregate(vec_exec.run_round(
                    [pool_vec[i] for i in picks], factory,
                    vec_server.global_state(copy=False), config, round_index=r))
            assert par_exec.last_fallback_reason is None
            assert par_exec.scheduler.builds == 1  # fleet stayed warm
            assert par_exec.scheduler.rounds_dispatched == len(selections)
            par_state = par_server.global_state()
            for key, value in vec_server.global_state().items():
                np.testing.assert_allclose(value, par_state[key], atol=TOL,
                                           rtol=0)
        finally:
            par_exec.close()

    @pytest.mark.parametrize("n_clients,num_workers", [(3, 8), (7, 2)],
                             ids=["K<workers", "K%workers!=0"])
    def test_shard_edge_cases_match_vectorized(self, n_clients, num_workers):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(batch_size=8, learning_rate=1e-3)
        vec = LocalUpdateExecutor("vectorized").run_round(
            make_clients(n_clients), factory, server.global_state(), config
        )
        executor = LocalUpdateExecutor("parallel", num_workers=num_workers)
        try:
            par = executor.run_round(
                make_clients(n_clients), factory, server.global_state(), config
            )
            assert executor.last_fallback_reason is None
            assert len(executor.scheduler._shards) == min(n_clients, num_workers)
            assert_states_match(vec, par)
        finally:
            executor.close()

    def test_factory_change_with_same_layout_rebuilds_fleet(self):
        # same parameter names/shapes, different arithmetic (a trailing
        # ReLU): the forked workers captured the old factory, so the
        # scheduler must see the new signature and re-fork instead of
        # silently training the stale program
        def chain(trailing_relu):
            def factory():
                layers = [Flatten(), Linear(64, 16, seed=7), ReLU(),
                          Linear(16, 10, seed=8)]
                return Sequential(*layers, *([ReLU()] if trailing_relu else []))
            return factory

        config = LocalTrainingConfig(batch_size=8, learning_rate=1e-3)
        executor = LocalUpdateExecutor("parallel", num_workers=2)
        try:
            server = FederatedServer(chain(False))
            executor.run_round(make_clients(4), chain(False),
                               server.global_state(), config, round_index=0)
            assert executor.scheduler.builds == 1
            par = executor.run_round(make_clients(4), chain(True),
                                     server.global_state(), config,
                                     round_index=1)
            assert executor.scheduler.builds == 2
            assert executor.last_fallback_reason is None
            vec = LocalUpdateExecutor("vectorized").run_round(
                make_clients(4), chain(True), server.global_state(), config,
                round_index=1)
            assert_states_match(vec, par)
        finally:
            executor.close()

    def test_scheduler_rebuilds_on_cohort_size_change(self, parallel_executor):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-3)
        parallel_executor.run_round(make_clients(4), factory,
                                    server.global_state(), config)
        parallel_executor.run_round(make_clients(6), factory,
                                    server.global_state(), config)
        assert parallel_executor.scheduler.builds == 2
        assert parallel_executor.last_fallback_reason is None

    def test_merge_stacks_are_float64(self, parallel_executor):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-3)
        ref = LocalUpdateExecutor("vectorized").run_round(
            make_clients(4), factory, server.global_state(), config
        )
        par = parallel_executor.run_round(make_clients(4), factory,
                                          server.global_state(), config)
        assert parallel_executor.last_fallback_reason is None
        assert all(stack.dtype == np.float64
                   for stack in par.stacked.values())
        assert_states_match(ref, par)


class TestParallelFallback:
    def test_worker_crash_falls_back_to_vectorized(self):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-3)
        executor = LocalUpdateExecutor("parallel", num_workers=2)
        try:
            executor.run_round(make_clients(4), factory, server.global_state(),
                               config, round_index=0)
            assert executor.last_fallback_reason is None
            # kill one worker mid-fleet: the next round must detect the dead
            # pipe, mark the scheduler broken and fall back transparently
            victim = executor.scheduler._workers[0]
            victim.terminate()
            victim.join(timeout=5.0)
            vec = LocalUpdateExecutor("vectorized").run_round(
                make_clients(4), factory, server.global_state(), config,
                round_index=1)
            par = executor.run_round(make_clients(4), factory,
                                     server.global_state(), config,
                                     round_index=1)
            assert executor.last_fallback_reason is not None
            assert executor.scheduler.broken is not None
            assert_states_match(vec, par)
            # later rounds keep working (permanently on the fallback path)
            again = executor.run_round(make_clients(4), factory,
                                       server.global_state(), config,
                                       round_index=2)
            assert executor.last_fallback_reason is not None
            assert len(again) == 4
        finally:
            executor.close()

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
        executor = LocalUpdateExecutor("parallel", num_workers=2)
        try:
            par = executor.run_round(clients, factory, server.global_state(),
                                     config)
            assert "ragged" in executor.last_fallback_reason
            # refused before a worker is forked or a pool is built
            assert executor.scheduler is None and executor.workspace is None
            seq = reference_round(
                [FederatedClient(0, 10, dataset=clients[0].dataset, seed=1),
                 FederatedClient(1, 10, dataset=clients[1].dataset, seed=2)],
                factory, server.global_state(), config,
            )
            assert_states_match(seq, par)
        finally:
            executor.close()

    def test_close_terminates_workers(self):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        executor = LocalUpdateExecutor("parallel", num_workers=2)
        executor.run_round(make_clients(4), factory, server.global_state(),
                           LocalTrainingConfig())
        workers = list(executor.scheduler._workers)
        assert workers and all(w.is_alive() for w in workers)
        executor.close()
        assert all(not w.is_alive() for w in workers)
        # close() is idempotent and the executor stays usable afterwards
        executor.close()
        executor.run_round(make_clients(4), factory, server.global_state(),
                           LocalTrainingConfig())
        assert executor.scheduler.builds == 2
        executor.close()

    def test_fleet_build_oserror_falls_back_to_vectorized(self, monkeypatch):
        # /dev/shm exhaustion, fork limits etc. surface as OSError during
        # the fleet build; the round must degrade, not crash the experiment
        import repro.federated.scheduler as scheduler_module

        def exhausted(*args, **kwargs):
            raise OSError("no space left on device (simulated)")

        monkeypatch.setattr(scheduler_module, "shared_pool", exhausted)
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-3)
        executor = LocalUpdateExecutor("parallel", num_workers=2)
        try:
            par = executor.run_round(make_clients(4), factory,
                                     server.global_state(), config)
            assert executor.last_fallback_reason is not None
            assert "build failed" in executor.last_fallback_reason
            vec = LocalUpdateExecutor("vectorized").run_round(
                make_clients(4), factory, server.global_state(), config)
            assert_states_match(vec, par)
        finally:
            executor.close()

    def test_scheduler_timeout_is_threaded_through(self):
        executor = LocalUpdateExecutor("parallel", num_workers=2,
                                       scheduler_timeout=7.5)
        try:
            factory = MODEL_FACTORIES["mlp"]
            server = FederatedServer(factory)
            executor.run_round(make_clients(2), factory, server.global_state(),
                               LocalTrainingConfig())
            assert executor.scheduler.timeout == 7.5
        finally:
            executor.close()
        with pytest.raises(ValueError):
            LocalUpdateExecutor("parallel", scheduler_timeout=0)
        with pytest.raises(ValueError):
            FederatedConfig(executor_mode="parallel", scheduler_timeout=-1.0)

    def test_merge_stacks_are_round_persistent(self, parallel_executor):
        factory = MODEL_FACTORIES["mlp"]
        server = FederatedServer(factory)
        config = LocalTrainingConfig(learning_rate=1e-3)
        first = parallel_executor.run_round(make_clients(4), factory,
                                            server.global_state(), config,
                                            round_index=0)
        first_arrays = {name: arr for name, arr in first.stacked.items()}
        second = parallel_executor.run_round(make_clients(4), factory,
                                             server.global_state(), config,
                                             round_index=1)
        # steady-state rounds reuse (and overwrite) the same merge stacks,
        # mirroring the vectorized pools' documented lifetime contract
        for name, arr in second.stacked.items():
            assert arr is first_arrays[name]

    def test_broken_scheduler_raises_immediately(self):
        scheduler = CohortScheduler(num_workers=2)
        scheduler.broken = "synthetic breakage"
        with pytest.raises(SchedulerError, match="synthetic breakage"):
            clients = make_clients(2)
            scheduler.run_round(clients,
                                [client.cohort_slot() for client in clients],
                                MODEL_FACTORIES["mlp"], {},
                                LocalTrainingConfig())


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


def make_simulation(sim_setup, mode, rounds=3, **config_kwargs):
    generator, partition, test_set = sim_setup
    return FederatedSimulation(
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
            **config_kwargs,
        ),
    )


class TestParallelSimulation:
    def test_parallel_matches_vectorized_curves(self, sim_setup):
        with make_simulation(sim_setup, "vectorized") as sim_vec:
            hist_vec = sim_vec.run()
            vec_state = sim_vec.server.global_state()
        with make_simulation(sim_setup, "parallel", num_workers=2) as sim_par:
            hist_par = sim_par.run()
            assert sim_par.executor.last_fallback_reason is None
            assert sim_par.executor.scheduler.builds == 1
            par_state = sim_par.server.global_state()
        np.testing.assert_allclose(hist_vec.accuracies(), hist_par.accuracies(),
                                   atol=TOL)
        for key in vec_state:
            np.testing.assert_allclose(vec_state[key], par_state[key], atol=TOL,
                                       rtol=0)

    def test_context_manager_closes_fleet(self, sim_setup):
        with make_simulation(sim_setup, "parallel", num_workers=2) as sim:
            sim.run_round(0)
            workers = list(sim.executor.scheduler._workers)
            assert workers and all(w.is_alive() for w in workers)
        assert all(not w.is_alive() for w in workers)

    def test_num_workers_requires_parallel_mode(self):
        with pytest.raises(ValueError):
            FederatedConfig(executor_mode="vectorized", num_workers=2)
        with pytest.raises(ValueError):
            FederatedConfig(executor_mode="parallel", num_workers=0)
        assert FederatedConfig(executor_mode="parallel").num_workers is None
