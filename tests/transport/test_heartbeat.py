"""Liveness tests: the heartbeat state machine detects half-open connections.

A TCP peer that stops reading and writing (a yanked cable, a frozen VM)
leaves a *half-open* connection: the server's writes succeed into the kernel
buffer, so nothing fails until the round deadline.  The heartbeat protocol
closes that gap — a connection silent for ``HEARTBEAT_LIMIT`` (3)
heartbeat intervals is declared dead, its pending reply future fails
immediately, and the round completes long before ``round_timeout``.
"""

import socket
import threading
import time

import pytest

from repro import FederatedConfig, Session
from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.transport import SocketTransport, TransportClient
from repro.transport.server import HEARTBEAT_LIMIT
from repro.transport.messages import Register, encode_message

RECIPE = dict(n_clients=4, participants=2, samples_per_client=12, seed=0)


@pytest.fixture
def donor():
    session = Session(FederatedConfig(
        rounds=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
    )).with_recipe("repro.ledger.recipes:federation", **RECIPE)
    simulation = session.build()
    yield simulation
    session.close()


class TestHalfOpenDetection:
    def test_silent_client_fails_the_round_well_before_the_deadline(self, donor):
        transport = SocketTransport(TransportConfig(
            kind="socket", round_timeout=30.0, connect_timeout=10.0,
            heartbeat_interval=0.2))
        host, port = transport.start()
        # a half-open peer: registers, then never reads or writes again
        zombie = socket.create_connection((host, port))
        try:
            zombie.sendall(encode_message(Register(0, 10, 12)))
            start = time.monotonic()
            states = transport.run_round(
                [donor.client(0)], donor.server.new_client_model,
                donor.server.global_state(), LocalTrainingConfig(),
                round_index=0)
            elapsed = time.monotonic() - start
        finally:
            zombie.close()
            transport.close()

        # death comes from 3 missed 0.2s heartbeats, not the 30s deadline
        assert HEARTBEAT_LIMIT == 3
        assert elapsed < 5.0, (
            f"half-open client stalled the round for {elapsed:.1f}s")
        assert states == []
        assert transport.last_round_failures == {0: "offline"}
        assert transport.last_round_disconnects == {0: "heartbeat"}
        assert transport.disconnects[0] == "heartbeat"

    def test_responsive_client_survives_aggressive_heartbeats(self, donor):
        # frequent heartbeats during real training: the client answers from
        # its read loop (training runs off-loop) and is never declared dead:
        # three 1/3 s intervals keep the 1 s silence window
        transport = SocketTransport(TransportConfig(
            kind="socket", round_timeout=30.0, connect_timeout=10.0,
            heartbeat_interval=1.0 / 3))
        host, port = transport.start()
        peer = TransportClient(donor.client(1), donor.server.new_client_model,
                               host, port)
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        try:
            states = transport.run_round(
                [donor.client(1)], donor.server.new_client_model,
                donor.server.global_state(), LocalTrainingConfig(),
                round_index=0)
        finally:
            transport.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(states) == 1
        assert transport.last_round_failures == {}
        assert 1 not in transport.disconnects or \
            transport.disconnects[1] != "heartbeat"

    def test_health_state_machine_degrades_then_dies(self, donor):
        # degraded after one silent 0.2 s interval, dead after three (0.6 s)
        transport = SocketTransport(TransportConfig(
            kind="socket", round_timeout=30.0, connect_timeout=10.0,
            heartbeat_interval=0.2))
        host, port = transport.start()
        zombie = socket.create_connection((host, port))
        try:
            zombie.sendall(encode_message(Register(2, 10, 12)))
            deadline = time.monotonic() + 5.0
            while (transport.client_health(2) != "healthy"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert transport.client_health(2) == "healthy"
            # one silent interval: degraded but still connected
            seen_degraded = False
            while time.monotonic() < deadline:
                health = transport.client_health(2)
                if health == "degraded":
                    seen_degraded = True
                if health is None:  # declared dead and removed
                    break
                time.sleep(0.01)
            assert seen_degraded, "session never transitioned to degraded"
            assert transport.client_health(2) is None
            assert transport.disconnects[2] == "heartbeat"
        finally:
            zombie.close()
            transport.close()

    def test_heartbeats_disabled_by_zero_interval(self, donor):
        # interval 0 turns probing off entirely: a silent peer survives
        # (the round deadline is then the only liveness mechanism)
        transport = SocketTransport(TransportConfig(
            kind="socket", round_timeout=1.0, connect_timeout=10.0,
            heartbeat_interval=0.0))
        host, port = transport.start()
        zombie = socket.create_connection((host, port))
        try:
            zombie.sendall(encode_message(Register(3, 10, 12)))
            states = transport.run_round(
                [donor.client(3)], donor.server.new_client_model,
                donor.server.global_state(), LocalTrainingConfig(),
                round_index=0)
            # still connected at the deadline: a straggler, not offline
            assert states == []
            assert transport.last_round_failures == {0: "straggler"}
            assert transport.client_health(3) == "healthy"
        finally:
            zombie.close()
            transport.close()


class TestTeardown:
    def test_closing_an_idle_server_does_not_wait_out_the_heartbeat(self):
        # the probe sleeps heartbeat_interval (10 s by default) between
        # rounds: close() must cancel it, not sit out its 1 s grace window
        transport = SocketTransport(TransportConfig(kind="socket"))
        assert transport.config.heartbeat_interval > 1.0
        started = time.perf_counter()
        transport.start()
        loop = transport._loop
        transport.close()
        assert time.perf_counter() - started < 0.2
        assert transport._heartbeat_task is None
        assert loop.is_closed()
