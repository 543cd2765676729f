"""The honest-but-curious trust boundary, asserted on the object graph.

Dubhe's clients hold ``sk_t`` (the agent dispatches the whole pair, §5.1) and
draw their encryption noise from a :class:`NoisePool` built on it; the server
only ever sums ciphertexts.  These tests keep every
:class:`SecureAggregationServer` a protocol run creates alive, then walk
``gc.get_referents`` from each one and assert that no private key, no noise
pool and no plaintext array is reachable — the structural form of the paper's
§4 claim, which the key-holder noise path makes load-bearing.  The ciphertext
each client keeps for re-sending within a key epoch is client-side state too:
no server may reach a :class:`SecureClient` or the object it kept.  The socket
server refuses every frame it cannot read — the retired ciphertext upload's
type code, an older wire version — and keeps none of its bytes.
"""

import gc
import random
import socket
import types

import numpy as np
import pytest

from repro.core import secure
from repro.core.config import DubheConfig, TransportConfig
from repro.core.secure import (
    SecureAggregationServer,
    SecureDistributionAggregation,
    SecureRegistrationRound,
    iter_distribution_batches,
)
from repro.core.secure_selector import SecureDubheSelector
from repro.crypto.keyagent import KeyAgent
from repro.crypto.paillier import NoisePool, PaillierPrivateKey
from repro.transport import SocketTransport
from repro.transport.messages import (
    Register,
    RegisterAck,
    decode_message,
    encode_message,
)
from repro.transport.wire import encode_frame, frame_header

FORBIDDEN = (PaillierPrivateKey, NoisePool, np.ndarray)
# code, not data: descending into these reaches every module global
OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
          types.MethodDescriptorType, types.WrapperDescriptorType)


def reachable_forbidden(root, client_side=(), forbidden=FORBIDDEN) -> list:
    """Every *forbidden* instance, or *client_side* object, hanging off *root*."""
    kept = {id(obj) for obj in client_side}
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        for obj in gc.get_referents(stack.pop()):
            if id(obj) in seen or isinstance(obj, OPAQUE):
                continue
            seen.add(id(obj))
            if isinstance(obj, forbidden) or id(obj) in kept:
                found.append(obj)
            stack.append(obj)
    return found


@pytest.fixture
def servers(monkeypatch):
    """Every server constructed during the test, kept alive for inspection."""
    live = []
    original = SecureAggregationServer.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        live.append(self)

    monkeypatch.setattr(SecureAggregationServer, "__init__", recording_init)
    return live


@pytest.fixture(scope="module")
def config():
    return DubheConfig(num_classes=6, reference_set=(1, 2, 6),
                       thresholds={1: 0.6, 2: 0.1, 6: 0.0},
                       participants_per_round=4, tentative_selections=2,
                       key_size=64, registration_batch_size=5)


@pytest.fixture(scope="module")
def distributions(config):
    return np.random.default_rng(3).dirichlet(
        np.full(config.num_classes, 0.4), size=13)


def agent():
    return KeyAgent(key_size=64, rng=random.Random(11))


def kept_uploads(scorer) -> list:
    """The ciphertext every client of *scorer*'s key epoch holds for re-sending."""
    return [client._upload for client in scorer._clients.values()]


def assert_clean(servers, expected_at_least=1, client_side=()):
    assert len(servers) >= expected_at_least
    for server in servers:
        assert server.stats.messages > 0
        assert reachable_forbidden(server, client_side) == []
        assert not hasattr(server, "decrypt")


class TestServerObjectGraph:
    def test_the_walk_finds_what_it_looks_for(self, servers, config,
                                              distributions):
        # negative control: plant each forbidden thing behind a container
        SecureRegistrationRound(config, agent=agent()).run_stream(distributions)
        server = servers[0]
        sk = agent().new_round().private_key
        for leak in (sk, NoisePool(sk), np.zeros(2)):
            server.stats.leak = {"nested": [leak]}
            assert any(hit is leak for hit in reachable_forbidden(server))
        del server.stats.leak
        assert reachable_forbidden(server) == []

    @pytest.mark.parametrize("kwargs", [
        {},
        {"packed": True, "precompute_noise": True},
        {"packed": True, "aggregation": "tree"},
    ], ids=["per-component", "packed-precomputed", "packed-tree"])
    def test_run_stream(self, servers, config, distributions, kwargs):
        SecureRegistrationRound(config, agent=agent(), **kwargs).run_stream(
            distributions)
        SecureRegistrationRound(config, agent=agent(), **kwargs).run_stream(
            iter_distribution_batches(distributions, 4),
            total_clients=len(distributions))
        assert_clean(servers, 2)

    def test_score_selection(self, servers, config, distributions):
        scorer = SecureDistributionAggregation(config, agent=agent())
        scorer.population(distributions, [0, 3, 5, 8])
        scorer.population(distributions, [8, 3, 1, 0])   # three re-sends
        # the pool on sk_t exists, on the client side only
        assert isinstance(scorer.noise.key, PaillierPrivateKey)
        assert_clean(servers, 2, client_side=kept_uploads(scorer))

    def test_secure_selector_select(self, servers, config, distributions):
        selector = SecureDubheSelector(distributions, config, seed=0,
                                       agent=agent())
        rounds = 4
        for r in range(rounds):
            selector.select(r)
        # the clients kept their uploads across all of it, and re-sent them ...
        uploads = kept_uploads(selector._scorer)
        assert len(uploads) > config.participants_per_round
        assert (selector._scorer.noise.generated
                < rounds * config.tentative_selections
                * config.participants_per_round * uploads[0].scheme.num_ciphertexts)
        # ... yet no server can reach one, nor the clients, the pool or a key:
        # one registration server plus one per tentative try
        assert_clean(servers, 1 + rounds * config.tentative_selections,
                     client_side=[*uploads, *selector._scorer._clients.values()])

    def test_the_walk_finds_a_kept_upload(self, servers, config, distributions):
        # negative control for client_side=: a server that kept the very
        # object a client handed it would be caught
        scorer = SecureDistributionAggregation(config, agent=agent())
        scorer.population(distributions, [0, 3, 5, 8])
        uploads = kept_uploads(scorer)
        servers[0].stats.leak = [uploads[2]]
        assert reachable_forbidden(servers[0], uploads) == [uploads[2]]

    def test_protocol_pools_are_built_on_the_private_key(self, servers,
                                                         monkeypatch, config,
                                                         distributions):
        built = []
        original = secure._client_noise_pool
        monkeypatch.setattr(secure, "_client_noise_pool",
                            lambda key: built.append(original(key)) or built[-1])
        SecureRegistrationRound(config, agent=agent()).run_stream(distributions)
        SecureRegistrationRound(config, agent=agent(), packed=True).run_stream(
            distributions)
        assert len(built) == 2
        assert all(isinstance(pool.key, PaillierPrivateKey) for pool in built)
        # the clients generated every term, the CRT way, and none leaked
        assert all(pool.generated > 0 for pool in built)
        assert_clean(servers, 2)


def read_message(sock):
    """One whole frame off a blocking socket, decoded."""
    data = b""
    while len(data) < 8:
        chunk = sock.recv(8 - len(data))
        assert chunk, "server closed the connection"
        data += chunk
    _, length = frame_header(data)
    while len(data) < 8 + length + 4:
        chunk = sock.recv(8 + length + 4 - len(data))
        assert chunk, "server truncated its reply"
        data += chunk
    return decode_message(data)[0]


class TestSocketServerKeepsNoUpload:
    #: 4 KiB no reply of the server could contain by chance
    MARKER = bytes(range(256)) * 16

    def refuse(self, transport, frame):
        """Send *frame* as a fresh peer and read until the server hangs up."""
        with socket.create_connection(transport.address, timeout=10.0) as sock:
            sock.sendall(frame)
            try:
                while sock.recv(4096):
                    pass  # the ErrorNotice, then end of stream
            except ConnectionResetError:
                pass  # closed with the rest of the frame unread

    def test_retired_and_old_version_frames_are_refused_and_dropped(self):
        retired = encode_frame(3, self.MARKER)  # the packed upload's old code
        old_version = encode_frame(Register.TYPE, Register(5, 6, 8).to_payload()
                                   + self.MARKER, version=2)
        transport = SocketTransport(TransportConfig(kind="socket"))
        transport.start()
        try:
            for frame in [retired] * 50 + [old_version] * 50:
                self.refuse(transport, frame)
            # each peer is counted before the server hangs up on it
            assert sum(transport.decode_failures.values()) == 100
            with socket.create_connection(transport.address,
                                          timeout=10.0) as sock:
                sock.sendall(encode_message(Register(7, 6, 8)))
                assert isinstance(read_message(sock), RegisterAck)
            kept = [obj for obj in reachable_forbidden(
                        transport, forbidden=(bytes, bytearray))
                    if self.MARKER in obj]
            assert kept == []
        finally:
            transport.close()
