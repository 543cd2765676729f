"""In process, the executor is the transport.

``LocalUpdateExecutor`` honours the :class:`~repro.transport.base.Transport`
contract itself, so a simulation without sockets speaks to it directly.
These tests pin that ``build_transport`` maps configs to the right
implementation, that the in-process transport only trains (it observes no
failures, and its broadcast hooks are no-ops), and that ``repro.federated``
and ``repro.transport`` import in either order.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.federated.executor import LocalUpdateExecutor
from repro.transport import Transport, build_transport

from reference.sequential_nn import run_round as reference_round


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
        assert isinstance(transport, LocalUpdateExecutor)
        assert isinstance(transport, Transport)
        assert transport.mode == "vectorized"
        transport.close()

    def test_inprocess_is_the_given_executor(self):
        executor = LocalUpdateExecutor(mode="vectorized")
        assert build_transport(TransportConfig(), executor) is executor
        executor.close()

    def test_socket_kind_builds_a_socket_transport(self):
        from repro.transport import SocketTransport

        transport = build_transport(TransportConfig(kind="socket"))
        assert isinstance(transport, SocketTransport)
        transport.close()


class TestInProcessContract:
    @pytest.mark.parametrize("mode", ["sequential", "vectorized"])
    def test_failed_positions_are_left_out_not_reported(self, mode):
        model_factory = make_model_factory()
        global_state = model_factory().state_dict()
        config = LocalTrainingConfig(batch_size=4, local_epochs=1)
        executor = LocalUpdateExecutor(mode)
        states = executor.run_round(make_cohort(), model_factory,
                                    global_state, config, failed=[1])
        expected = reference_round(
            make_cohort()[::2], model_factory, global_state, config)
        # the plan's failures are the simulation's record, not a transport's
        assert executor.last_round_failures == {}
        assert len(states) == len(expected) == 2
        for state, ref in zip(states, expected):
            for name in ref:
                assert np.array_equal(state[name], ref[name])

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


@pytest.mark.parametrize("order", [("repro.federated", "repro.transport"),
                                   ("repro.transport", "repro.federated")])
def test_packages_import_in_either_order(order):
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "; ".join(f"import {name}" for name in order)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


class TestSimulationSeam:
    def test_the_executor_is_the_transport_in_process(self):
        from repro import FederatedConfig, Session

        session = Session(FederatedConfig(rounds=1, seed=0)).with_recipe(
            "repro.ledger.recipes:federation", n_clients=6, participants=2,
            seed=0)
        simulation = session.build()
        try:
            assert isinstance(simulation.executor, LocalUpdateExecutor)
            assert simulation.transport is simulation.executor
        finally:
            session.close()
