"""End-to-end localhost runs of the socket transport.

The service layer's headline contracts, asserted over real TCP sockets:

* a fault-free socket round is **bit-identical** (exact float64 equality,
  not approximate) to the in-process sequential back-end — remote clients
  train from the broadcast state with the same ``(seed, round)``-keyed
  determinism;
* a client that misses the round deadline becomes a real ``"straggler"``
  partial round with the same record semantics the fault injector produces;
* a fallback note made outside ``run_round`` (a broadcast that timed out, a
  peer's error notice) lands on the record of the round it belongs to, and
  on no other;
* teardown is idempotent and leak-free even with clients still connected.
"""

import asyncio
import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro import FederatedConfig, Session
from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.transport import SocketTransport, TransportClient
from repro.transport.messages import ErrorNotice, Register, encode_message
from repro.transport.server import SEND_QUEUE

RECIPE = dict(n_clients=6, participants=3, samples_per_client=12, seed=0)


def make_session(transport=None, selector="random"):
    config = FederatedConfig(
        rounds=2, eval_every=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
        transport=transport,
    )
    return Session(config).with_recipe("repro.ledger.recipes:federation",
                                       selector=selector, **RECIPE)


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


def wait_registered(transport, client_ids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while any(transport.client_health(cid) is None for cid in client_ids):
        assert time.monotonic() < deadline, "clients never registered"
        time.sleep(0.01)


@contextlib.contextmanager
def full_send_queue(transport, client_id):
    """Hold *client_id*'s bounded send queue full for the block.

    The session's queue is swapped for one holding ``SEND_QUEUE`` frames
    that no writer drains; leaving the block puts the drained queue back
    and empties the full one, releasing any sender still waiting on it.
    """
    session = transport._sessions[client_id]
    drained = session.queue
    full = asyncio.Queue(maxsize=SEND_QUEUE)

    async def fill():
        for _ in range(SEND_QUEUE):
            full.put_nowait(b"")
        session.queue = full

    async def release():
        session.queue = drained
        while not full.empty():
            full.get_nowait()

    asyncio.run_coroutine_threadsafe(fill(), transport._loop).result()
    try:
        yield
    finally:
        asyncio.run_coroutine_threadsafe(release(), transport._loop).result()


def socket_run(donor, connect_timeout=10.0):
    """A started Dubhe federation (its selector broadcasts probabilities
    every round) with every peer registered and no heartbeat."""
    session = make_session(TransportConfig(
        kind="socket", round_timeout=30.0,
        connect_timeout=connect_timeout, heartbeat_interval=0.0),
        selector="dubhe")
    simulation = session.build()
    host, port = simulation.transport.start()
    _, threads = start_clients(donor, host, port)
    wait_registered(simulation.transport, range(RECIPE["n_clients"]))
    return session, simulation, threads


class TestFallbackNotes:
    def test_a_broadcast_into_a_full_queue_is_on_its_own_round(self, donor):
        # round 0's ProbabilityBroadcast finds client 0's send queue full
        # and gives up after connect_timeout; round 1's goes through
        session, simulation, threads = socket_run(donor, connect_timeout=1.0)
        transport = simulation.transport
        broadcast = transport.broadcast_probabilities

        def broadcast_into_a_full_queue(round_index, probabilities):
            if round_index != 0:
                return broadcast(round_index, probabilities)
            with full_send_queue(transport, client_id=0):
                broadcast(round_index, probabilities)

        transport.broadcast_probabilities = broadcast_into_a_full_queue
        try:
            first, second = simulation.run().records
        finally:
            session.close()
        join_all(threads)
        assert first.fallback_reason == "broadcast timed out on a full queue"
        assert second.fallback_reason is None
        assert first.failures == second.failures == {}

    def test_an_error_notice_between_rounds_reaches_the_next_record(
            self, donor):
        session, simulation, threads = socket_run(donor)
        rogue = None
        try:
            first = simulation.run_round(0)
            host, port = simulation.transport.address
            rogue = socket.create_connection((host, port))
            # frames of one connection are dispatched in order: once the
            # Register is seen, so is the notice before it
            rogue.sendall(encode_message(ErrorNotice("disk full")))
            rogue.sendall(encode_message(Register(99, 10, 12)))
            wait_registered(simulation.transport, [99])
            second = simulation.run_round(1)
            third = simulation.run_round(2)
        finally:
            if rogue is not None:
                rogue.close()
            session.close()
        join_all(threads)
        assert first.fallback_reason is None
        assert second.fallback_reason == "client error: disk full"
        assert third.fallback_reason is None


class TestWireEventsBetweenRounds:
    def test_a_lost_peer_and_a_bad_frame_reach_the_next_record(self, donor):
        # a peer that registers after round 0 and hangs up before round 1,
        # and a stranger's malformed frame, each land on round 1 only
        session, simulation, threads = socket_run(donor)
        transport = simulation.transport
        try:
            first = simulation.run_round(0)
            late = socket.create_connection(transport.address)
            late.sendall(encode_message(Register(99, 10, 12)))
            wait_registered(transport, [99])
            late.close()
            stranger = socket.create_connection(transport.address)
            stranger.sendall(b"\xff" * 16)  # no frame magic
            deadline = time.monotonic() + 10.0
            while (99 not in transport.disconnects
                   or not transport.decode_failures):
                assert time.monotonic() < deadline, "the events never arrived"
                time.sleep(0.01)
            stranger.close()
            second = simulation.run_round(1)
            third = simulation.run_round(2)
        finally:
            session.close()
        join_all(threads)
        assert first.disconnects == {} and first.decode_failures == {}
        assert second.disconnects == {99: "connection_lost"}
        assert second.decode_failures == {-1: 1}
        assert third.disconnects == {} and third.decode_failures == {}

    def test_an_empty_cohort_takes_the_events_too(self):
        # a round whose whole cohort the fault plan failed still closes the
        # window: the next round does not inherit what happened before it
        transport = SocketTransport(TransportConfig(kind="socket"))
        try:
            stranger = socket.create_connection(transport.start())
            stranger.sendall(b"\xff" * 16)  # no frame magic
            deadline = time.monotonic() + 10.0
            while not transport.decode_failures:
                assert time.monotonic() < deadline, "the frame never arrived"
                time.sleep(0.01)
            stranger.close()
            empty = [transport.run_round([], None, {}, LocalTrainingConfig(),
                                         round_index=r) for r in (0, 1)]
        finally:
            transport.close()
        assert [o.decode_failures for o in empty] == [{-1: 1}, {}]


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
