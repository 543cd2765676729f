"""Chaos proxy tests: deterministic wire faults, and the zero-fault identity.

Two headline contracts from the chaos design:

* **zero-fault identity** — an empty :class:`NetworkSpec` interposes the
  proxy but induces nothing: a proxied socket run is bit-identical
  (``np.array_equal`` on the final global state, exact accuracy equality)
  to the in-process reference;
* **seeded determinism** — with the same seed the proxy damages the same
  frames of the same clients in the same rounds: the induced-event stream
  and the failure records the run produces are identical across repeats.
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
from repro.scenarios import NetworkSpec, ScenarioSpec
from repro.transport import ChaosProxy, SocketTransport, TransportClient
from repro.transport.messages import (
    Register,
    RegisterAck,
    Shutdown,
    decode_message,
    encode_message,
)
from repro.transport.wire import TruncatedFrameError

RECIPE = dict(n_clients=6, participants=3, samples_per_client=12, seed=0)


def make_session(transport=None, scenario=None, rounds=2):
    config = FederatedConfig(
        rounds=rounds, eval_every=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
        transport=transport, scenario=scenario,
    )
    return Session(config).with_recipe("repro.ledger.recipes:federation",
                                       **RECIPE)


def start_clients(donor, host, port):
    peers, threads = [], []
    for client_id in range(RECIPE["n_clients"]):
        peer = TransportClient(donor.client(client_id),
                               donor.server.new_client_model, host, port)
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        peers.append(peer)
        threads.append(thread)
    return peers, threads


def join_all(threads, timeout=15.0):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "client thread leaked past shutdown"


@pytest.fixture
def donor():
    session = make_session()
    simulation = session.build()
    yield simulation
    session.close()


def run_socket_scenario(donor, scenario, round_timeout=30.0,
                        heartbeat_interval=10.0):
    """One full socket run under *scenario*; returns (history, state, proxy)."""
    session = make_session(
        TransportConfig(kind="socket", round_timeout=round_timeout,
                        connect_timeout=15.0,
                        heartbeat_interval=heartbeat_interval),
        scenario=scenario,
    )
    simulation = session.build()
    host, port = simulation.transport.start()
    proxy = simulation.transport.proxy
    assert proxy is not None, "a NetworkSpec must interpose the chaos proxy"
    assert (host, port) == proxy.address
    peers, threads = start_clients(donor, host, port)
    try:
        history = simulation.run()
        state = simulation.server.global_state()
        events = list(proxy.events)
    finally:
        session.close()
    join_all(threads)
    return history, state, events


class TestZeroFaultIdentity:
    def test_empty_network_spec_through_the_proxy_is_bit_identical(
            self, donor):
        reference = make_session()
        ref_history = reference.run().history
        ref_state = reference.simulation.server.global_state()
        reference.close()

        history, state, events = run_socket_scenario(
            donor, ScenarioSpec(network=NetworkSpec()))

        assert events == []
        assert len(history) == len(ref_history) == 2
        for record, ref_record in zip(history.records, ref_history.records):
            assert record.selected_clients == ref_record.selected_clients
            assert record.test_accuracy == ref_record.test_accuracy
            assert record.failures == {}
        for name in ref_state:
            assert np.array_equal(state[name], ref_state[name]), (
                f"proxied run diverged from in-process at {name!r}")


class TestDeterministicFailureRecords:
    def test_partitioned_client_fails_identically_across_repeats(self, donor):
        # learn a client that is actually selected, then partition its
        # uplink: deltas are discarded, every selected round records the
        # same "straggler" failure — byte-identically, three times over
        probe = make_session()
        victim = probe.run().history.records[0].selected_clients[0]
        probe.close()

        scenario = ScenarioSpec(
            network=NetworkSpec(partitions={victim: "to_server"}), seed=11)
        runs = []
        for _ in range(3):
            history, _, events = run_socket_scenario(
                donor, scenario, round_timeout=1.5, heartbeat_interval=0.0)
            failure_records = [
                (r.round_index, dict(r.failures), r.actual_clients,
                 r.aggregation_skipped)
                for r in history.records
            ]
            runs.append((failure_records, events))

        assert runs[0] == runs[1] == runs[2]
        failure_records, events = runs[0]
        # the victim was selected in round 0, its delta was discarded, and
        # the loss surfaced as a straggler (still connected at the deadline)
        assert failure_records[0][1].get(victim) == "straggler"
        assert any(client == victim and kind == "partition"
                   for _, client, _, kind in events)


class _SinkServer:
    """A TCP server that reads and discards everything (never replies)."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.address = self.sock.getsockname()
        self._stop = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        self.sock.settimeout(0.2)
        conns = []
        while not self._stop:
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(0.2)
            thread = threading.Thread(target=self._drain, args=(conn,),
                                      daemon=True)
            thread.start()
            conns.append(conn)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def _drain(self, conn):
        try:
            while not self._stop:
                try:
                    if not conn.recv(4096):
                        return
                except socket.timeout:
                    continue
        except OSError:
            pass

    def close(self):
        self._stop = True
        try:
            self.sock.close()
        except OSError:
            pass
        self.thread.join(timeout=5.0)


@contextlib.contextmanager
def hosted(proxy):
    """Open *proxy* on an event loop of its own thread; yield its address."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        yield asyncio.run_coroutine_threadsafe(proxy.open(), loop).result(10)
    finally:
        asyncio.run_coroutine_threadsafe(proxy.aclose(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def _drive_proxy(spec, seed, connections=12, frames_per_connection=6):
    """Push a fixed frame schedule through a fresh proxy; return its events.

    The proxy decides frame-by-frame off its stream buffer, so the client
    may fire each connection's frames in one burst: the decision sequence
    depends only on ``(seed, round, client, direction, ordinal)``, never on
    how the bytes were batched on the wire.
    """
    sink = _SinkServer()
    proxy = ChaosProxy(sink.address, spec=spec, seed=seed)
    try:
        with hosted(proxy) as address:
            for connection in range(connections):
                burst = b"".join(
                    encode_message(Register(connection, 10, index + 1))
                    for index in range(frames_per_connection))
                sock = socket.create_connection(address, timeout=5.0)
                try:
                    sock.sendall(burst)
                except OSError:
                    pass  # the proxy already cut this connection
                finally:
                    sock.close()
            # every fault decision is recorded once each connection's relay
            # ends
            deadline = time.monotonic() + 30.0
            while proxy.relays_finished < connections:
                assert time.monotonic() < deadline, "the proxy never drained"
                time.sleep(0.01)
            return sorted(proxy.events)
    finally:
        sink.close()


class TestSeededEventStream:
    SPEC = NetworkSpec(flip_probability=0.25, truncate_probability=0.2,
                       reset_probability=0.2)

    def test_same_seed_same_damage(self):
        first = _drive_proxy(self.SPEC, seed=42)
        second = _drive_proxy(self.SPEC, seed=42)
        assert first == second
        assert first, "the spec's probabilities should induce some faults"
        assert {kind for _, _, _, kind in first} <= {
            "flip", "truncate", "reset"}

    def test_different_seed_different_damage(self):
        first = _drive_proxy(self.SPEC, seed=42)
        second = _drive_proxy(self.SPEC, seed=43)
        assert first != second

    def test_corruption_kinds_map_to_structured_wire_errors(self):
        # a flipped frame relayed to a real transport earns a structured
        # decode failure, not a crash: end-to-end through proxy AND server
        transport = SocketTransport(
            TransportConfig(kind="socket", connect_timeout=10.0),
            network=NetworkSpec(flip_probability=1.0), chaos_seed=5)
        address = transport.start()
        proxy = transport.proxy
        try:
            sock = socket.create_connection(address, timeout=5.0)
            sock.sendall(encode_message(Register(0, 10, 8)))
            sock.settimeout(2.0)
            try:
                while sock.recv(4096):
                    pass
            except (socket.timeout, ConnectionError, OSError):
                pass
            sock.close()
            deadline = time.monotonic() + 5.0
            while (not transport.decode_failures
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert sum(transport.decode_failures.values()) >= 1
            assert proxy.events and proxy.events[0][3] == "flip"
        finally:
            transport.close()


def test_closing_a_proxied_transport_relays_the_shutdown():
    # the server closes before its proxy; frames still in flight through
    # the proxy (held back here by its latency) must reach the client, or a
    # TransportClient that never sees Shutdown retries a proxy that is gone
    transport = SocketTransport(
        TransportConfig(kind="socket", heartbeat_interval=0.0),
        network=NetworkSpec(latency=0.05))
    sock = socket.create_connection(transport.start(), timeout=5.0)
    received = b""
    try:
        sock.sendall(encode_message(Register(0, 10, 8)))
        while RegisterAck not in [type(m) for m in _messages(received)]:
            chunk = sock.recv(4096)
            assert chunk, "the proxy hung up before the RegisterAck"
            received += chunk
        transport.close()
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            received += chunk
    finally:
        sock.close()
        transport.close()
    assert [type(m) for m in _messages(received)] == [RegisterAck, Shutdown]


def test_a_bare_proxy_opens_once_and_closes_safely():
    async def lifecycle():
        proxy = ChaosProxy(("127.0.0.1", 9))
        await proxy.aclose()  # never opened: a no-op
        address = await proxy.open()
        again = await proxy.open()
        await proxy.aclose()
        await proxy.aclose()
        return address, again, proxy.address

    address, again, kept = asyncio.run(lifecycle())
    assert address == again == kept and address[1] > 0


def test_a_proxied_transport_runs_one_event_loop_thread():
    before = set(threading.enumerate())
    transport = SocketTransport(TransportConfig(kind="socket"),
                                network=NetworkSpec())
    try:
        assert transport.start() == transport.proxy.address
        started = set(threading.enumerate()) - before
        assert started == {transport._thread}
        assert "chaos-proxy" not in {t.name for t in threading.enumerate()}
    finally:
        transport.close()


def _messages(buffer):
    """Every whole message at the head of *buffer*, in order."""
    messages = []
    while buffer:
        try:
            message, used = decode_message(buffer)
        except TruncatedFrameError:
            break  # a frame still arriving
        messages.append(message)
        buffer = buffer[used:]
    return messages
