"""The in-process transport must be a zero-cost wrapper over the executors.

``InProcessTransport`` is the seam the simulation speaks through when no
socket layer is configured; these tests pin that it forwards ``run_round``
verbatim (bit-identical states, mirrored telemetry), that ``build_transport``
maps configs to the right implementation, and that a simulation built
through the default config behaves exactly as the pre-transport executor
path did.
"""

import numpy as np
import pytest

from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.transport import InProcessTransport, Transport, build_transport


def make_cohort(n_clients=3, seed=0):
    from repro import quick_federation
    from repro.federated.client import FederatedClient

    partition, generator = quick_federation(n_clients=n_clients,
                                            samples_per_client=12, seed=seed)
    clients = []
    for index in range(n_clients):
        counts = partition.client_class_counts[index]
        data_seed = seed + 100_003 * index

        def factory(counts=counts, data_seed=data_seed):
            return generator.generate(counts,
                                      rng=np.random.default_rng(data_seed))

        clients.append(FederatedClient(client_id=index,
                                       num_classes=partition.num_classes,
                                       dataset_factory=factory,
                                       seed=data_seed))
    return clients


def make_model_factory(seed=7):
    from repro.nn.models import MLP

    return lambda: MLP(64, 10, hidden=(8,), seed=seed)


class TestBuildTransport:
    def test_default_is_inprocess(self):
        transport = build_transport()
        assert isinstance(transport, InProcessTransport)
        assert transport.executor.mode == "sequential"
        transport.close()

    def test_inprocess_wraps_the_given_executor(self):
        executor = LocalUpdateExecutor(mode="vectorized")
        transport = build_transport(TransportConfig(), executor)
        assert transport.executor is executor
        transport.close()

    def test_socket_kind_builds_a_socket_transport(self):
        from repro.transport import SocketTransport

        transport = build_transport(TransportConfig(kind="socket"))
        assert isinstance(transport, SocketTransport)
        transport.close()


class TestInProcessForwarding:
    def test_states_match_the_bare_executor_bit_for_bit(self):
        clients = make_cohort()
        model_factory = make_model_factory()
        global_state = model_factory().state_dict()
        config = LocalTrainingConfig(batch_size=4, local_epochs=1)

        bare = LocalUpdateExecutor("sequential")
        expected = bare.run_round(clients, model_factory, global_state,
                                  config, round_index=0)
        bare.close()

        transport = InProcessTransport(LocalUpdateExecutor("sequential"))
        actual = transport.run_round(make_cohort(), model_factory,
                                     global_state, config, round_index=0)
        transport.close()

        assert len(actual) == len(expected)
        for state_a, state_b in zip(actual, expected):
            for name in state_b:
                assert np.array_equal(state_a[name], state_b[name])

    def test_telemetry_is_mirrored(self):
        transport = InProcessTransport(LocalUpdateExecutor("sequential"))
        transport.run_round([], make_model_factory(), {},
                            LocalTrainingConfig())
        assert transport.last_round_failures == {}
        assert transport.last_round_delay == 0.0
        assert transport.last_fallback_reason is None
        transport.close()

    def test_interface_hooks_are_noops_in_process(self):
        transport = build_transport()
        transport.broadcast_probabilities(0, [0.5, 0.5])
        transport.on_round_complete(record=None)
        transport.close()

    def test_close_is_idempotent(self):
        transport = build_transport()
        transport.close()
        transport.close()  # second close must not raise

    def test_transport_is_abstract(self):
        with pytest.raises(TypeError):
            Transport()


class TestSimulationSeam:
    def test_simulation_exposes_both_transport_and_executor(self):
        from repro import FederatedConfig, Session

        session = Session(FederatedConfig(rounds=1, seed=0)).with_recipe(
            "repro.ledger.recipes:quick_mlp", n_clients=6, participants=2,
            seed=0)
        simulation = session.build()
        try:
            assert isinstance(simulation.transport, InProcessTransport)
            assert simulation.executor is simulation.transport.executor
        finally:
            session.close()
