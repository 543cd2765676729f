"""Streaming secure registration ≡ plaintext registration, bit-identically.

``SecureRegistrationRound.run_stream`` must decrypt to the plaintext overall
registry and return the per-client Algorithm 1 indices, with closed-form
message and byte accounting — for the per-component path, the packed
(count-packing) path, and the tree-aggregation server alike.  The suite
also pins down the streaming-specific API contract: iterable inputs,
``total_clients`` headroom validation, overrun/empty-stream errors, and the
O(log N) fold depth.
"""

import random
import types

import numpy as np
import pytest

from repro.core import secure
from repro.core.config import DubheConfig
from repro.core.registry import RegistryCodebook
from repro.core.secure import (
    SecureAggregationServer,
    SecureRegistrationRound,
    StreamedRegistration,
    iter_distribution_batches,
)
from repro.crypto import keyagent, paillier
from repro.crypto.batch import BatchCryptoExecutor
from repro.crypto.keyagent import KeyAgent
from repro.crypto.packing import PackingScheme
from repro.crypto.paillier import NoisePool
from repro.crypto.vector import plaintext_vector_bytes

N_CLIENTS = 23


@pytest.fixture(scope="module")
def config():
    return DubheConfig(num_classes=6, reference_set=(1, 2, 6),
                       thresholds={1: 0.6, 2: 0.1, 6: 0.0},
                       participants_per_round=5, key_size=64,
                       registration_batch_size=7)


@pytest.fixture(scope="module")
def distributions(config):
    rng = np.random.default_rng(17)
    return rng.dirichlet(np.full(config.num_classes, 0.4), size=N_CLIENTS)


class TestStreamEqualsPlaintext:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"packed": True},
        {"aggregation": "tree", "arity": 3},
        {"packed": True, "aggregation": "tree"},
    ], ids=["per-component", "packed", "tree", "packed-tree"])
    def test_overall_and_indices_identical(self, config, distributions,
                                           kwargs):
        agent = KeyAgent(key_size=64, rng=random.Random(5))
        streamed = SecureRegistrationRound(
            config, agent=agent, **kwargs).run_stream(distributions)
        codebook = RegistryCodebook(config)
        assert isinstance(streamed, StreamedRegistration)
        np.testing.assert_array_equal(
            streamed.overall,
            codebook.register_batch(distributions).overall_registry())
        assert streamed.overall.sum() == N_CLIENTS
        assert streamed.n_clients == N_CLIENTS
        per_client = [codebook.register(p) for p in distributions]
        assert streamed.registration.indices.tolist() == \
            [r.index for r in per_client]
        assert streamed.registration.blocks.tolist() == \
            [r.block for r in per_client]
        # N uploads seen by client and server sides plus N aggregate syncs,
        # every one a registry's worth of ciphertexts
        public_key = agent.keypair.public_key
        per_upload = (PackingScheme.for_counts(
            public_key, codebook.length, max_weight=N_CLIENTS).num_ciphertexts
            if kwargs.get("packed") else codebook.length)
        assert streamed.stats.messages == 3 * N_CLIENTS
        assert streamed.stats.plaintext_bytes == \
            N_CLIENTS * plaintext_vector_bytes(np.zeros(codebook.length))
        assert streamed.stats.ciphertext_bytes == \
            3 * N_CLIENTS * per_upload * public_key.ciphertext_bytes()

    def test_batching_is_invisible(self, config, distributions):
        """Any chunking of the same clients produces the same result."""
        baseline = SecureRegistrationRound(config).run_stream(distributions)
        for batch_size in (1, 4, N_CLIENTS, 100):
            chunks = iter_distribution_batches(distributions, batch_size)
            streamed = SecureRegistrationRound(config).run_stream(
                chunks, total_clients=N_CLIENTS)
            np.testing.assert_array_equal(streamed.overall, baseline.overall)
            np.testing.assert_array_equal(streamed.registration.indices,
                                          baseline.registration.indices)

    def test_num_batches_follows_config(self, config, distributions):
        streamed = SecureRegistrationRound(config).run_stream(distributions)
        assert streamed.num_batches == -(-N_CLIENTS // 7)

    def test_precompute_noise_stream(self, config, distributions):
        streamed = SecureRegistrationRound(
            config, packed=True, precompute_noise=True).run_stream(
            distributions)
        reference = SecureRegistrationRound(config).run_stream(distributions)
        np.testing.assert_array_equal(streamed.overall, reference.overall)
        assert streamed.stats.noise_precompute_seconds > 0.0


class TestProtocolOrder:
    def test_one_round_key_then_chunks_encrypt(self, config, distributions,
                                               monkeypatch):
        events = []
        generate_keypair = keyagent.generate_keypair
        monkeypatch.setattr(
            keyagent, "generate_keypair",
            lambda *args, **kwargs:
                events.append(("keygen",)) or generate_keypair(*args, **kwargs))
        encrypt_many = BatchCryptoExecutor.encrypt_many
        monkeypatch.setattr(
            BatchCryptoExecutor, "encrypt_many",
            lambda self, pk, vectors, **kwargs:
                events.append(("encrypt", len(vectors)))
                or encrypt_many(self, pk, vectors, **kwargs))
        agent = KeyAgent(key_size=64, rng=random.Random(1))
        SecureRegistrationRound(config, agent=agent).run_stream(distributions)
        # one round key, then every chunk of registration_batch_size clients
        assert events == [("keygen",)] + [("encrypt", b) for b in (7, 7, 7, 2)]


class TestKeyHolderRouting:
    """Routing noise through ``sk_t`` changes no ciphertext integer."""

    @pytest.mark.parametrize("feed", ["array", "chunks"])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"packed": True},
        {"packed": True, "precompute_noise": True, "aggregation": "tree"},
    ], ids=["per-component", "packed", "packed-precomputed-tree"])
    def test_ciphertexts_equal_the_public_key_routing(self, config,
                                                      distributions,
                                                      monkeypatch, kwargs,
                                                      feed):
        received = []
        receive = SecureAggregationServer.receive
        monkeypatch.setattr(
            SecureAggregationServer, "receive",
            lambda self, vector: received.append(list(vector.ciphertexts))
            or receive(self, vector))

        def uploads(pool_key):
            # the protocol draws r from `secrets`: seed it for this run
            monkeypatch.setattr(paillier, "secrets", types.SimpleNamespace(
                randbelow=random.Random(99).randrange))
            monkeypatch.setattr(
                secure, "_client_noise_pool",
                lambda sk: NoisePool(pool_key(sk), check_coprime=True))
            received.clear()
            round_ = SecureRegistrationRound(
                config, agent=KeyAgent(key_size=64, rng=random.Random(2)),
                **kwargs)
            if feed == "array":
                round_.run_stream(distributions)
            else:
                round_.run_stream(iter_distribution_batches(distributions, 5),
                                  total_clients=N_CLIENTS)
            return list(received)

        before = uploads(lambda sk: sk.public_key)
        after = uploads(lambda sk: sk)
        assert len(after) == N_CLIENTS
        assert after == before


class TestFoldDepth:
    def test_flat_depth_is_linear(self, config, distributions):
        streamed = SecureRegistrationRound(config).run_stream(distributions)
        assert streamed.fold_depth == N_CLIENTS - 1

    def test_tree_depth_is_logarithmic(self, config):
        rng = np.random.default_rng(3)
        n = 64
        distributions = rng.dirichlet(np.full(config.num_classes, 0.4), size=n)
        streamed = SecureRegistrationRound(
            config, aggregation="tree").run_stream(distributions)
        assert streamed.fold_depth == 6  # 64 = 2^6 → a perfect binary tree
        assert streamed.fold_depth < n - 1


class TestStreamContract:
    def test_iterable_with_ragged_chunks(self, config, distributions):
        def ragged():
            yield distributions[:1]
            yield distributions[1:1]  # empty chunks are skipped, not counted
            yield distributions[1:20]
            yield distributions[20:]

        streamed = SecureRegistrationRound(config).run_stream(
            ragged(), total_clients=N_CLIENTS)
        reference = SecureRegistrationRound(config).run_stream(distributions)
        np.testing.assert_array_equal(streamed.overall, reference.overall)
        assert streamed.num_batches == 3

    def test_packed_iterable_requires_total_clients(self, config,
                                                    distributions):
        chunks = iter_distribution_batches(distributions, 8)
        with pytest.raises(ValueError, match="total_clients"):
            SecureRegistrationRound(config, packed=True).run_stream(chunks)

    def test_overrunning_total_clients_is_an_error(self, config,
                                                   distributions):
        chunks = iter_distribution_batches(distributions, 8)
        with pytest.raises(ValueError, match="more than total_clients"):
            SecureRegistrationRound(config).run_stream(
                chunks, total_clients=N_CLIENTS - 1)

    def test_empty_stream_is_an_error(self, config):
        with pytest.raises(ValueError, match="no client distributions"):
            SecureRegistrationRound(config).run_stream(iter([]))

    def test_invalid_inputs_rejected(self, config, distributions):
        round_ = SecureRegistrationRound(config)
        with pytest.raises(ValueError, match="2-D"):
            round_.run_stream(distributions[0])
        with pytest.raises(ValueError, match="shape"):
            round_.run_stream(iter([distributions[:, :3]]),
                              total_clients=N_CLIENTS)
        with pytest.raises(ValueError, match="total_clients"):
            round_.run_stream(distributions, total_clients=0)

    def test_invalid_round_configuration(self, config):
        with pytest.raises(ValueError):
            SecureRegistrationRound(config, aggregation="ring")
        with pytest.raises(ValueError):
            SecureRegistrationRound(config, arity=1)
