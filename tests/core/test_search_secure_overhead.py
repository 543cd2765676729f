"""Tests for parameter search, the secure protocol and overhead accounting."""

import random

import numpy as np
import pytest

from reference.per_component_scorer import PerComponentScorer
from repro.core.config import DubheConfig
from repro.core.parameter_search import default_sigma_grid, search_thresholds
from repro.core.registry import RegistryCodebook
from repro.core.secure import (
    ProtocolStats,
    SecureAggregationServer,
    SecureClient,
    SecureDistributionAggregation,
    SecureRegistrationRound,
)
from repro.crypto.keyagent import KeyAgent
from repro.crypto.paillier import generate_keypair
from repro.crypto.vector import plaintext_vector_bytes
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions


@pytest.fixture(scope="module")
def federation_distributions():
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(80, 64, 1.5, seed=0).partition(global_dist)
    return partition.client_distributions()


def unsettled_config(k=10, h=3):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       participants_per_round=k, tentative_selections=h, seed=0)


class TestParameterSearch:
    def test_finds_thresholds_for_every_reference_entry(self, federation_distributions):
        result = search_thresholds(federation_distributions, unsettled_config(),
                                   sigma_grid=(0.1, 0.5, 0.9), seed=0)
        assert set(result.thresholds) == {1, 2, 10}
        assert result.thresholds[10] == 0.0
        assert result.config.has_all_thresholds()
        assert result.score >= 0

    def test_search_score_beats_worst_grid_point(self, federation_distributions):
        result = search_thresholds(federation_distributions, unsettled_config(),
                                   sigma_grid=(0.1, 0.5, 0.9), seed=0)
        assert result.score <= max(result.all_scores.values()) + 1e-9

    def test_monotone_threshold_constraint_respected(self, federation_distributions):
        result = search_thresholds(federation_distributions, unsettled_config(),
                                   sigma_grid=(0.3, 0.7), seed=0)
        for assignment in result.all_scores:
            assert all(assignment[j] >= assignment[j + 1] for j in range(len(assignment) - 1))

    def test_reference_set_with_only_c(self, federation_distributions):
        config = DubheConfig(num_classes=10, reference_set=(10,), participants_per_round=10)
        result = search_thresholds(federation_distributions, config, seed=0)
        assert result.thresholds == {10: 0.0}

    def test_invalid_inputs(self, federation_distributions):
        with pytest.raises(ValueError):
            search_thresholds(federation_distributions[:, :5], unsettled_config())
        with pytest.raises(ValueError):
            search_thresholds(federation_distributions, unsettled_config(), tries=0)
        with pytest.raises(ValueError):
            default_sigma_grid(())
        with pytest.raises(ValueError):
            default_sigma_grid((1.5,))

    def test_settled_config_improves_selection(self, federation_distributions):
        from repro.core.selectors import DubheSelector, RandomSelector

        result = search_thresholds(federation_distributions, unsettled_config(k=16),
                                   sigma_grid=(0.1, 0.3, 0.5, 0.7, 0.9), seed=0)
        dubhe = DubheSelector(federation_distributions, result.config, seed=1)
        rand = RandomSelector(federation_distributions, 16, seed=1)
        dubhe_bias = np.mean([dubhe.bias_of(dubhe.select(r)) for r in range(15)])
        random_bias = np.mean([rand.bias_of(rand.select(r)) for r in range(15)])
        assert dubhe_bias < random_bias


def settled_config(key_size=128, k=5, h=2):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h,
                       key_size=key_size)


class TestSecureProtocol:
    def test_registration_round_matches_plaintext_aggregation(self, federation_distributions):
        subset = federation_distributions[:12]
        config = settled_config()
        agent = KeyAgent(key_size=128, rng=random.Random(0))
        streamed = SecureRegistrationRound(config, agent=agent).run_stream(subset)
        expected = RegistryCodebook(config).register_batch(subset).overall_registry()
        np.testing.assert_array_equal(streamed.overall, expected)
        assert streamed.n_clients == 12
        stats = streamed.stats
        assert stats.messages > 0
        assert stats.ciphertext_bytes > stats.plaintext_bytes
        assert stats.encrypt_seconds > 0
        assert stats.decrypt_seconds > 0

    def test_server_rejects_foreign_ciphertexts(self):
        kp_a = generate_keypair(128, rng=random.Random(2))
        kp_b = generate_keypair(128, rng=random.Random(3))
        server = SecureAggregationServer(kp_a.public_key)
        client = SecureClient(0, np.full(10, 0.1), max_weight=1)
        with pytest.raises(ValueError):
            server.receive(client.encrypted_distribution(kp_b.public_key))

    def test_server_aggregate_requires_messages(self):
        keypair = generate_keypair(128, rng=random.Random(4))
        server = SecureAggregationServer(keypair.public_key)
        with pytest.raises(ValueError):
            server.aggregate()

    def test_client_without_headroom_sends_nothing(self):
        keypair = generate_keypair(128, rng=random.Random(5))
        client = SecureClient(0, np.full(10, 0.1))
        with pytest.raises(ValueError, match="max_weight"):
            client.encrypted_distribution(keypair.public_key)
        assert client.stats.messages == 0 and client._upload is None

    def test_secure_distribution_scoring_matches_plaintext(self, federation_distributions):
        config = settled_config()
        agent = KeyAgent(key_size=128, rng=random.Random(7))
        secure = SecureDistributionAggregation(config, agent=agent)
        selected = [0, 3, 5, 8]
        population = secure.population(federation_distributions, selected)
        plaintext_pop = federation_distributions[selected].mean(axis=0)
        expected = np.abs(plaintext_pop - 0.1).sum()
        assert np.abs(population - 0.1).sum() == pytest.approx(expected, abs=1e-6)
        assert secure.stats.messages >= len(selected)
        with pytest.raises(ValueError):
            secure.population(federation_distributions, [])

    def test_distribution_aggregation_books_each_decrypt(self, federation_distributions):
        secure = SecureDistributionAggregation(
            settled_config(), agent=KeyAgent(key_size=128, rng=random.Random(8)))
        assert secure.stats.decrypt_seconds == 0
        secure.population(federation_distributions, [0, 3])
        first = secure.stats.decrypt_seconds
        assert first > 0
        secure.population(federation_distributions, [3, 0])   # re-sent uploads
        assert secure.stats.decrypt_seconds > first
        assert secure.stats.encrypt_seconds > 0


class TestPackedSecureProtocol:
    """The packed pipeline must be a drop-in replacement, bit for bit."""

    def test_packed_round_bit_identical_to_per_component(self, federation_distributions):
        subset = federation_distributions[:10]
        config = settled_config(key_size=256)
        plain = SecureRegistrationRound(
            config, agent=KeyAgent(key_size=256, rng=random.Random(21))
        ).run_stream(subset)
        packed = SecureRegistrationRound(
            config, agent=KeyAgent(key_size=256, rng=random.Random(21)),
            packed=True, precompute_noise=True).run_stream(subset)
        plain_stats, packed_stats = plain.stats, packed.stats
        np.testing.assert_array_equal(plain.overall, packed.overall)
        # packing shrinks the wire and keeps the message count
        assert packed_stats.ciphertext_bytes < plain_stats.ciphertext_bytes
        assert packed_stats.messages == plain_stats.messages
        assert packed_stats.noise_precompute_seconds > 0

    def test_packed_client_transmits_packed_ciphertexts(self, federation_distributions):
        from repro.crypto.packing import PackedEncryptedVector
        from repro.crypto.paillier import NoisePool

        keypair = generate_keypair(256, rng=random.Random(24))
        pool = NoisePool(keypair.public_key, rng=random.Random(25))
        server = SecureAggregationServer(keypair.public_key)
        clients = [SecureClient(k, federation_distributions[k], max_weight=4,
                                noise=pool) for k in range(4)]
        for client in clients:
            ciphertext = client.encrypted_distribution(keypair.public_key)
            assert isinstance(ciphertext, PackedEncryptedVector)
            server.receive(ciphertext)
        total = server.aggregate().decrypt(keypair.private_key)
        expected = federation_distributions[:4].sum(axis=0)
        np.testing.assert_allclose(total, expected, atol=1e-9)

    def test_packed_client_requires_max_weight(self, federation_distributions):
        keypair = generate_keypair(256, rng=random.Random(26))
        client = SecureClient(0, federation_distributions[0])
        with pytest.raises(ValueError):
            client.encrypted_distribution(keypair.public_key)
        zero = SecureClient(0, federation_distributions[0], max_weight=0)
        with pytest.raises(ValueError):
            zero.encrypted_distribution(keypair.public_key)

    def test_packed_scoring_bit_identical(self, federation_distributions):
        config = settled_config(key_size=256)
        selected = [0, 3, 5, 8]
        reference = PerComponentScorer(
            config, KeyAgent(key_size=256, rng=random.Random(23)))
        packed = SecureDistributionAggregation(
            config, agent=KeyAgent(key_size=256, rng=random.Random(23)))
        assert np.array_equal(packed.population(federation_distributions, selected),
                              reference.population(federation_distributions, selected))


class TestStreamingAggregation:
    def test_received_messages_and_aggregate(self):
        keypair = generate_keypair(128, rng=random.Random(31))
        server = SecureAggregationServer(keypair.public_key)
        clients = [SecureClient(k, np.full(4, 0.25), max_weight=5) for k in range(5)]
        for client in clients:
            server.receive(client.encrypted_distribution(keypair.public_key))
        assert server.stats.messages == 5
        total = server.aggregate().decrypt(keypair.private_key)
        np.testing.assert_allclose(total, np.full(4, 1.25), atol=1e-9)

    def test_memory_is_constant_in_clients(self):
        keypair = generate_keypair(128, rng=random.Random(32))
        server = SecureAggregationServer(keypair.public_key)
        client = SecureClient(0, np.full(4, 0.1), max_weight=7)
        for _ in range(7):
            server.receive(client.encrypted_distribution(keypair.public_key))
        # one running aggregate, not a buffer of received vectors
        buffers = [v for v in vars(server).values() if isinstance(v, list)]
        assert not buffers
        assert server.stats.messages == 7

    def test_receive_does_not_mutate_sender_ciphertext(self):
        keypair = generate_keypair(128, rng=random.Random(33))
        server = SecureAggregationServer(keypair.public_key)
        client = SecureClient(0, np.full(3, 0.5), max_weight=2)
        first = client.encrypted_distribution(keypair.public_key)
        original = list(first.ciphertexts)
        server.receive(first)
        server.receive(client.encrypted_distribution(keypair.public_key))
        assert first.ciphertexts == original

#: the paper's two registries: length → (C, G, thresholds)
REGISTRIES = {
    56: (10, (1, 2, 10), {1: 0.7, 2: 0.1, 10: 0.0}),
    53: (52, (1, 52), {1: 0.7, 52: 0.0}),
}


def one_client_registration(key_size, length=56, packed=False):
    """A one-client registration round over one of the paper's registries."""
    num_classes, reference_set, thresholds = REGISTRIES[length]
    config = DubheConfig(num_classes=num_classes, reference_set=reference_set,
                         thresholds=thresholds, key_size=key_size)
    agent = KeyAgent(key_size=key_size, rng=random.Random(key_size))
    streamed = SecureRegistrationRound(config, agent=agent, packed=packed).run_stream(
        np.full((1, num_classes), 1.0 / num_classes))
    assert streamed.registration.length == length
    return streamed.stats, agent.keypair.public_key


class TestOverheadAccounting:
    """§6.4's per-vector figures, read off the rounds' own ProtocolStats."""

    @pytest.mark.parametrize("length", sorted(REGISTRIES))
    def test_per_vector_figures(self, length):
        stats, public_key = one_client_registration(128, length)
        # upload, server receipt, sync back: one registry's ciphertexts each
        assert stats.messages == 3
        ciphertext = stats.ciphertext_bytes / stats.messages
        assert ciphertext == length * public_key.ciphertext_bytes()
        assert stats.plaintext_bytes == plaintext_vector_bytes(np.zeros(length))
        assert ciphertext > stats.plaintext_bytes
        assert stats.encrypt_seconds > 0
        assert stats.decrypt_seconds > 0
        # bytes moved, not bytes per vector: three bookings of one vector
        assert stats.expansion_factor == pytest.approx(
            3 * ciphertext / stats.plaintext_bytes)

    def test_scored_try_books_each_upload_twice(self, federation_distributions):
        secure = SecureDistributionAggregation(
            settled_config(), agent=KeyAgent(key_size=128, rng=random.Random(9)))
        selected = [0, 3, 5]
        secure.population(federation_distributions, selected)
        stats = secure.stats
        assert stats.messages == 2 * len(selected)
        ciphertext = stats.ciphertext_bytes / stats.messages
        plaintext = stats.plaintext_bytes / len(selected)
        assert plaintext == plaintext_vector_bytes(np.zeros(10))
        assert stats.expansion_factor == pytest.approx(2 * ciphertext / plaintext)

    def test_ciphertext_grows_with_key_size(self):
        small, _ = one_client_registration(128)
        large, _ = one_client_registration(256)
        assert large.ciphertext_bytes > small.ciphertext_bytes
        assert large.plaintext_bytes == small.plaintext_bytes

    @pytest.mark.parametrize("length", sorted(REGISTRIES))
    def test_packed_sends_fewer_bytes(self, length):
        plain, _ = one_client_registration(256, length)
        packed, _ = one_client_registration(256, length, packed=True)
        assert packed.plaintext_bytes == plain.plaintext_bytes
        assert packed.messages == plain.messages
        assert packed.ciphertext_bytes < plain.ciphertext_bytes

    def test_merged_with_sums_every_field(self):
        a = ProtocolStats(1, 2, 3, 0.5, 0.25, 0.125)
        b = ProtocolStats(10, 20, 30, 1.0, 2.0, 4.0)
        assert a.merged_with(b) == ProtocolStats(11, 22, 33, 1.5, 2.25, 4.125)
        assert a == ProtocolStats(1, 2, 3, 0.5, 0.25, 0.125)

    def test_nothing_uploaded_no_expansion(self):
        assert ProtocolStats().expansion_factor == 0.0
        assert ProtocolStats(messages=2, ciphertext_bytes=64).expansion_factor == 0.0
