"""End-to-end localhost runs of the socket transport.

The service layer's headline contracts, asserted over real TCP sockets:

* a fault-free socket round is **bit-identical** (exact float64 equality,
  not approximate) to the in-process sequential back-end — remote clients
  train from the broadcast state with the same ``(seed, round)``-keyed
  determinism;
* a client that misses the round deadline becomes a real ``"straggler"``
  partial round with the same record semantics the fault injector produces;
* teardown is idempotent and leak-free even with clients still connected.
"""

import threading

import numpy as np
import pytest

from repro import FederatedConfig, Session
from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.transport import SocketTransport, TransportClient

RECIPE = dict(n_clients=6, participants=3, samples_per_client=12, seed=0)


def make_session(transport=None):
    config = FederatedConfig(
        rounds=2, eval_every=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
        transport=transport,
    )
    return Session(config).with_recipe("repro.ledger.recipes:federation",
                                       **RECIPE)


def start_clients(donor, host, port, delays=None):
    """One TransportClient thread per federation client, seeded from *donor*
    (an identically-built in-process simulation that never runs)."""
    peers, threads = [], []
    for client_id in range(RECIPE["n_clients"]):
        delay = (delays or {}).get(client_id, 0.0)
        peer = TransportClient(
            donor.client(client_id), donor.server.new_client_model,
            host, port, delay=delay, delay_round=1 if delay else None,
        )
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        peers.append(peer)
        threads.append(thread)
    return peers, threads


def join_all(threads, timeout=10.0):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "client thread leaked past shutdown"


@pytest.fixture
def donor():
    session = make_session()
    simulation = session.build()
    yield simulation
    session.close()


class TestFaultFreeLoopback:
    def test_socket_run_is_bit_identical_to_in_process(self, donor):
        reference = make_session()
        ref_history = reference.run().history
        ref_state = reference.simulation.server.global_state()

        session = make_session(TransportConfig(kind="socket",
                                               round_timeout=30.0))
        simulation = session.build()
        assert isinstance(simulation.transport, SocketTransport)
        host, port = simulation.transport.start()
        peers, threads = start_clients(donor, host, port)
        try:
            history = simulation.run()
            state = simulation.server.global_state()
        finally:
            session.close()
        join_all(threads)
        reference.close()

        assert len(history) == len(ref_history) == 2
        for record, ref_record in zip(history.records, ref_history.records):
            assert record.selected_clients == ref_record.selected_clients
            assert record.test_accuracy == ref_record.test_accuracy
            assert record.failures == {}
        for name in ref_state:
            assert state[name].dtype == ref_state[name].dtype
            assert np.array_equal(state[name], ref_state[name]), (
                f"socket round diverged from in-process at {name!r}")

    def test_clients_observe_round_results(self, donor):
        session = make_session(TransportConfig(kind="socket",
                                               round_timeout=30.0))
        simulation = session.build()
        host, port = simulation.transport.start()
        peers, threads = start_clients(donor, host, port)
        try:
            simulation.run()
        finally:
            session.close()
        join_all(threads)
        trained = sorted(cid for cid, peer in enumerate(peers)
                         if peer.rounds_trained)
        assert trained, "no client trained anything"
        for peer in peers:
            assert peer.position is not None
            assert [r.round_index for r in peer.round_results] == [0, 1]
            assert all(not r.skipped for r in peer.round_results)


class TestRealStraggler:
    def test_deadline_miss_is_a_partial_round(self, donor):
        # learn round 1's deterministic cohort from an in-process replica,
        # then make its first member miss the socket deadline for real
        probe = make_session()
        straggler = probe.run().history.records[1].selected_clients[0]
        probe.close()

        session = make_session(TransportConfig(kind="socket",
                                               round_timeout=1.5,
                                               connect_timeout=10.0))
        simulation = session.build()
        host, port = simulation.transport.start()
        peers, threads = start_clients(donor, host, port,
                                       delays={straggler: 4.0})
        try:
            history = simulation.run()
        finally:
            session.close()
        join_all(threads)

        clean, partial = history.records
        assert clean.failures == {}
        assert partial.failures == {straggler: "straggler"}
        assert straggler not in partial.actual_clients
        assert len(partial.actual_clients) == len(partial.selected_clients) - 1
        assert not partial.aggregation_skipped
        assert partial.actual_population_bias is not None


class TestTeardown:
    def test_close_is_idempotent_with_live_connections(self, donor):
        session = make_session(TransportConfig(kind="socket",
                                               round_timeout=30.0))
        simulation = session.build()
        host, port = simulation.transport.start()
        peers, threads = start_clients(donor, host, port)
        simulation.run_round(0)
        simulation.close()
        simulation.close()  # second close must be a clean no-op
        join_all(threads)

    def test_run_round_after_close_raises(self, donor):
        from repro.transport import TransportClosedError

        session = make_session(TransportConfig(kind="socket"))
        simulation = session.build()
        simulation.close()
        with pytest.raises(TransportClosedError):
            simulation.transport.run_round(
                [donor.client(0)], donor.server.new_client_model,
                donor.server.global_state(), LocalTrainingConfig(),
                round_index=0)
