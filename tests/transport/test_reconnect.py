"""Session resumption tests: a client lost mid-round rejoins and counts once.

The reconnect contract has three legs, each exercised over real sockets:

* a client whose connection dies after receiving its
  ``SelectionNotice`` can reconnect *before the round deadline*, gets the
  notice replayed, and its delta is aggregated — the round ends clean, not
  with an ``"offline"`` failure;
* ``ModelDelta`` is idempotent: a retransmit with the same
  ``(round, client, token)`` is counted in ``duplicate_deltas``, never
  aggregated twice;
* registration with a known token resumes the session (same token, same
  cohort position); an unknown token gets a fresh session but keeps the
  stable position;
* a replayed ``SelectionNotice`` for a round the peer still caches is
  answered with the delta it sent, not retrained — and training a later
  round in between leaves that cached delta untouched.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro import FederatedConfig, Session
from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.transport import SocketTransport, TransportClient
from repro.transport.messages import (
    Heartbeat,
    ModelDelta,
    Register,
    RegisterAck,
    SelectionNotice,
    Shutdown,
    decode_message,
    encode_message,
)
from repro.transport.wire import frame_header

RECIPE = dict(n_clients=4, participants=2, samples_per_client=12, seed=0)


def read_message(sock, timeout=10.0):
    """Read one protocol frame off a blocking socket (skipping heartbeats)."""
    sock.settimeout(timeout)

    def recvexact(n):
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            if not chunk:
                raise ConnectionError("peer closed")
            data += chunk
        return data

    while True:
        head = recvexact(8)
        _, length = frame_header(head)
        body = recvexact(length + 4)
        message, _ = decode_message(head + body)
        if not isinstance(message, Heartbeat):
            return message


def register(sock, client_id, token=""):
    sock.sendall(encode_message(Register(client_id, 10, 12, token=token)))
    ack = read_message(sock)
    assert isinstance(ack, RegisterAck)
    return ack


@pytest.fixture
def donor():
    session = Session(FederatedConfig(
        rounds=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
    )).with_recipe("repro.ledger.recipes:federation", **RECIPE)
    simulation = session.build()
    yield simulation
    session.close()


@pytest.fixture
def transport():
    transport = SocketTransport(TransportConfig(
        kind="socket", round_timeout=30.0, connect_timeout=10.0))
    transport.start()
    yield transport
    transport.close()


def run_round_in_thread(transport, donor, client, round_index=0):
    result = {}

    def body():
        try:
            result["outcome"] = transport.run_round(
                [client], donor.server.new_client_model,
                donor.server.global_state(), LocalTrainingConfig(),
                round_index=round_index)
        except BaseException as exc:  # surfaced by the caller's assert
            result["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, result


class TestMidRoundReconnect:
    def test_killed_client_rejoins_and_is_aggregated_exactly_once(
            self, donor, transport):
        host, port = transport.address
        # incarnation one: register, receive the selection, crash before
        # replying — no delta, no clean close
        first = socket.create_connection((host, port))
        register(first, client_id=0)
        thread, result = run_round_in_thread(transport, donor,
                                             donor.client(0))
        notice = read_message(first, timeout=30.0)
        assert isinstance(notice, SelectionNotice)
        first.close()  # the crash

        # incarnation two: a fresh TransportClient for the same federation
        # client rejoins before the deadline and answers the replayed notice
        peer = TransportClient(donor.client(0), donor.server.new_client_model,
                               host, port)
        peer_thread = threading.Thread(target=peer.run, daemon=True)
        peer_thread.start()

        thread.join(timeout=60.0)
        assert not thread.is_alive(), "round never completed"
        assert "error" not in result, result.get("error")
        outcome = result["outcome"]
        assert len(outcome.states) == 1
        assert outcome.failures == {}
        assert transport.duplicate_deltas == 0
        # the mid-round loss is visible, not silent
        assert outcome.disconnects == {0: "connection_lost"}
        assert peer.rounds_trained == [0]

        transport.close()  # Shutdown lets the peer thread exit
        peer_thread.join(timeout=10.0)
        assert not peer_thread.is_alive()

    def test_duplicate_delta_is_counted_never_double_aggregated(
            self, donor, transport):
        host, port = transport.address
        sock = socket.create_connection((host, port))
        try:
            ack = register(sock, client_id=1)
            thread, result = run_round_in_thread(transport, donor,
                                                 donor.client(1))
            notice = read_message(sock, timeout=30.0)
            reply = encode_message(ModelDelta(
                notice.round_index, 1, dict(notice.state), token=ack.token))
            sock.sendall(reply)
            sock.sendall(reply)  # the retransmit
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert "error" not in result, result.get("error")
            assert len(result["outcome"].states) == 1
            # the retransmit may still be in flight when the round closes;
            # the dedup must swallow it either way
            deadline = time.monotonic() + 5.0
            while (transport.duplicate_deltas == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert transport.duplicate_deltas == 1
        finally:
            sock.close()


class TestSessionResumption:
    def test_token_resumes_the_session(self, transport):
        host, port = transport.address
        first = socket.create_connection((host, port))
        ack = register(first, client_id=2)
        assert ack.token and ack.resumed is False
        first.close()

        second = socket.create_connection((host, port))
        resumed = register(second, client_id=2, token=ack.token)
        second.close()
        assert resumed.resumed is True
        assert resumed.token == ack.token
        assert resumed.position == ack.position

    def test_unknown_token_gets_a_fresh_session_same_position(self, transport):
        host, port = transport.address
        first = socket.create_connection((host, port))
        ack = register(first, client_id=3)
        first.close()

        second = socket.create_connection((host, port))
        fresh = register(second, client_id=3, token="not-a-real-token")
        second.close()
        assert fresh.resumed is False
        assert fresh.token != "not-a-real-token"
        assert fresh.token != ack.token
        # cohort positions are a stable registry, not connection order
        assert fresh.position == ack.position

    def test_positions_stay_stable_across_interleaved_reconnects(
            self, transport):
        host, port = transport.address
        a1 = socket.create_connection((host, port))
        ack_a = register(a1, client_id=0)
        b1 = socket.create_connection((host, port))
        ack_b = register(b1, client_id=1)
        a1.close()
        a2 = socket.create_connection((host, port))
        ack_a2 = register(a2, client_id=0, token=ack_a.token)
        a2.close()
        b1.close()
        assert ack_a.position != ack_b.position
        assert ack_a2.position == ack_a.position


class TestCachedDelta:
    def test_replayed_notice_resends_the_cached_delta_unchanged(self, donor):
        # a bare socket plays the server, so the test decides which rounds
        # stay open (no RoundResult): their deltas stay in the peer's cache
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30.0)
        host, port = listener.getsockname()
        peer = TransportClient(donor.client(0), donor.server.new_client_model,
                               host, port)
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        conn, _ = listener.accept()
        config = LocalTrainingConfig(batch_size=4, learning_rate=1e-2)
        try:
            assert isinstance(read_message(conn), Register)
            conn.sendall(encode_message(RegisterAck(0, 0, 1, token="t0")))

            def train(round_index, state):
                conn.sendall(encode_message(SelectionNotice(
                    round_index=round_index, client_id=0, config=config,
                    state=state, deadline=None)))
                delta = read_message(conn, timeout=30.0)
                assert isinstance(delta, ModelDelta)
                assert delta.round_index == round_index
                return {name: np.array(value)
                        for name, value in delta.state.items()}

            sent = train(3, donor.server.global_state())
            later = train(4, sent)
            assert any(not np.array_equal(later[name], sent[name])
                       for name in sent)
            for name, value in peer._delta_cache[3].items():
                np.testing.assert_array_equal(value, sent[name])

            resent = train(3, donor.server.global_state())
            assert peer.rounds_trained == [3, 4]
            assert set(resent) == set(sent)
            for name, value in sent.items():
                np.testing.assert_array_equal(resent[name], value)
            conn.sendall(encode_message(Shutdown()))
        finally:
            conn.close()
            listener.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
