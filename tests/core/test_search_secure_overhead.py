"""Tests for parameter search, the secure protocol and overhead accounting."""

import random

import numpy as np
import pytest

from reference.per_component_scorer import PerComponentScorer
from repro.core.config import DubheConfig
from repro.core.overhead import communication_overhead, measure_encryption_overhead
from repro.core.parameter_search import default_sigma_grid, search_thresholds
from repro.core.registry import RegistryCodebook
from repro.core.secure import (
    SecureAggregationServer,
    SecureClient,
    SecureDistributionAggregation,
    SecureRegistrationRound,
)
from repro.crypto.keyagent import KeyAgent
from repro.crypto.paillier import generate_keypair
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
    def test_received_count_and_aggregate(self):
        keypair = generate_keypair(128, rng=random.Random(31))
        server = SecureAggregationServer(keypair.public_key)
        clients = [SecureClient(k, np.full(4, 0.25), max_weight=5) for k in range(5)]
        for client in clients:
            server.receive(client.encrypted_distribution(keypair.public_key))
        assert server.received_count == 5
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
        assert server.received_count == 7

    def test_receive_does_not_mutate_sender_ciphertext(self):
        keypair = generate_keypair(128, rng=random.Random(33))
        server = SecureAggregationServer(keypair.public_key)
        client = SecureClient(0, np.full(3, 0.5), max_weight=2)
        first = client.encrypted_distribution(keypair.public_key)
        original = list(first.ciphertexts)
        server.receive(first)
        server.receive(client.encrypted_distribution(keypair.public_key))
        assert first.ciphertexts == original

    def test_reset_clears_the_stream(self):
        keypair = generate_keypair(128, rng=random.Random(34))
        server = SecureAggregationServer(keypair.public_key)
        client = SecureClient(0, np.full(3, 0.5), max_weight=1)
        server.receive(client.encrypted_distribution(keypair.public_key))
        server.reset()
        assert server.received_count == 0
        with pytest.raises(ValueError):
            server.aggregate()


class TestOverheadAccounting:
    def test_encryption_overhead_report(self):
        report = measure_encryption_overhead(vector_length=56, key_size=128, rng_seed=0)
        assert report.plaintext_bytes > 0
        assert report.ciphertext_bytes > report.plaintext_bytes
        assert report.expansion_factor > 1
        assert report.encrypt_seconds > 0
        assert report.decrypt_seconds > 0
        row = report.as_row()
        assert row["vector_length"] == 56
        assert row["key_size"] == 128

    def test_ciphertext_grows_with_key_size(self):
        small = measure_encryption_overhead(16, key_size=128, rng_seed=0)
        large = measure_encryption_overhead(16, key_size=256, rng_seed=0)
        assert large.ciphertext_bytes > small.ciphertext_bytes

    def test_invalid_measure_arguments(self):
        with pytest.raises(ValueError):
            measure_encryption_overhead(0, 128)
        with pytest.raises(ValueError):
            measure_encryption_overhead(10, 128, trials=0)
        with pytest.raises(ValueError):
            measure_encryption_overhead(10, 256, packed_clients=0)

    def test_packed_overhead_report(self):
        report = measure_encryption_overhead(vector_length=56, key_size=256,
                                             rng_seed=0, packed_clients=100)
        assert report.packed_ciphertexts < 56
        assert report.packed_ciphertext_bytes < report.ciphertext_bytes
        assert report.packed_expansion_factor < report.expansion_factor
        assert report.packing_gain > 1
        row = report.as_row()
        assert row["packed_kb"] < row["ciphertext_kb"]
        assert {"packed_expansion", "packed_encrypt_s", "packed_decrypt_s"} <= set(row)

    def test_report_without_packed_measurement_has_no_packed_columns(self):
        report = measure_encryption_overhead(vector_length=8, key_size=128, rng_seed=0)
        assert report.packed_expansion_factor is None
        assert report.packing_gain is None
        assert "packed_kb" not in report.as_row()

    def test_communication_counts_match_paper_formulas(self):
        report = communication_overhead(n_clients=1000, participants_per_round=20,
                                        tentative_selections=10,
                                        reregistration=True, multitime_determination=True)
        assert report.baseline_messages == 20
        assert report.registration_messages == 1000
        assert report.multitime_messages == 200
        assert report.dubhe_total == 1220
        assert report.overhead_ratio == pytest.approx(1200 / 20)

    def test_no_optional_features_no_overhead(self):
        report = communication_overhead(1000, 20, reregistration=False)
        assert report.registration_messages == 0
        assert report.multitime_messages == 0
        assert report.overhead_ratio == 0

    def test_invalid_communication_arguments(self):
        with pytest.raises(ValueError):
            communication_overhead(0, 1)
        with pytest.raises(ValueError):
            communication_overhead(10, 20)
        with pytest.raises(ValueError):
            communication_overhead(10, 5, tentative_selections=0)
