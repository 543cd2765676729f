"""Tests for SecureDubheSelector: the fully encrypted selection path."""

import random

import numpy as np
import pytest

from repro.core.config import DubheConfig
from repro.core.registry import BatchRegistration
from repro.core.secure_selector import SecureDubheSelector
from repro.core.selectors import DubheSelector, RandomSelector
from repro.crypto.keyagent import KeyAgent
from repro.crypto.packing import PackingScheme
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions


@pytest.fixture(scope="module")
def small_federation():
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(30, 64, 1.5, seed=0).partition(global_dist)
    return partition.client_distributions()


def settled_config(k=6, h=2):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h, key_size=128)


@pytest.fixture(scope="module")
def secure_selector(small_federation):
    agent = KeyAgent(key_size=128, rng=random.Random(0))
    return SecureDubheSelector(small_federation, settled_config(), seed=0, agent=agent)


class TestSecureDubheSelector:
    def test_requires_settled_config(self, small_federation):
        with pytest.raises(ValueError):
            SecureDubheSelector(small_federation,
                                DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                                            participants_per_round=5, key_size=128))

    def test_class_mismatch_rejected(self, small_federation):
        config = DubheConfig(num_classes=5, reference_set=(1, 5),
                             thresholds={1: 0.5, 5: 0.0}, participants_per_round=5,
                             key_size=128)
        with pytest.raises(ValueError):
            SecureDubheSelector(small_federation, config)

    def test_registration_matches_plaintext_selector(self, small_federation, secure_selector):
        # count packing decrypts exact integers: equal with no tolerance
        plaintext = DubheSelector(small_federation, settled_config(), seed=0)
        assert np.array_equal(secure_selector.overall_registry,
                              plaintext.overall_registry)
        assert np.array_equal(secure_selector.probabilities,
                              plaintext.probabilities)

    def test_registration_api_matches_plaintext_selector(self, small_federation,
                                                         secure_selector):
        plaintext = DubheSelector(small_federation, settled_config(), seed=0)
        batch = secure_selector.registration_batch
        assert isinstance(batch, BatchRegistration)
        assert np.array_equal(batch.blocks, plaintext.registration_batch.blocks)
        assert np.array_equal(batch.indices, plaintext.registration_batch.indices)
        # every row's slot is the one per-client Algorithm 1 flips
        assert (batch.indices.tolist()
                == [plaintext.codebook.register(p).index for p in small_federation])
        assert batch.length == secure_selector.codebook.length

    def test_selects_exactly_k_distinct(self, secure_selector):
        selected = secure_selector.select(0)
        assert len(selected) == 6
        assert len(set(selected)) == 6
        assert secure_selector.last_bias >= 0

    def test_same_seed_matches_plaintext_selections(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(1))
        secure = SecureDubheSelector(small_federation, settled_config(h=3), seed=7, agent=agent)
        plaintext = DubheSelector(small_federation, settled_config(h=3), seed=7)
        for r in range(3):
            assert secure.select(r) == plaintext.select(r)

    def test_protocol_stats_are_exact(self, small_federation):
        k, h = 6, 2
        n, c = small_federation.shape
        secure = SecureDubheSelector(small_federation, settled_config(k, h), seed=0,
                                     agent=KeyAgent(key_size=128, rng=random.Random(2)))
        # a twin agent replays the two round keys: registration, then scoring
        twin = KeyAgent(key_size=128, rng=random.Random(2))
        registry = PackingScheme.for_counts(
            twin.new_round().public_key, secure.codebook.length, max_weight=n)
        upload = PackingScheme(twin.new_round().public_key, c, max_weight=k)
        assert twin.keypair.public_key == secure.agent.keypair.public_key
        each = twin.keypair.public_key.ciphertext_bytes()

        # N uploads, N server receipts, N copies of the aggregate sent back
        registered = secure.stats
        assert registered.messages == 3 * n
        assert registered.ciphertext_bytes == 3 * n * registry.num_ciphertexts * each
        assert registry.num_ciphertexts < secure.codebook.length
        # per try: K packed uploads and K receipts of ⌈C/slots⌉ ciphertexts
        for selects in range(1, 4):
            secure.select(selects)
            scored = secure.stats
            assert scored.messages == 3 * n + 2 * k * h * selects
            assert (scored.ciphertext_bytes - registered.ciphertext_bytes
                    == 2 * k * h * selects * upload.num_ciphertexts * each)
        assert upload.num_ciphertexts == -(-c // upload.slots_per_ciphertext)
        assert upload.num_ciphertexts < c

    def test_every_select_books_its_decrypts(self, small_federation):
        # each of the H tries decrypts one aggregate, booked on the selector
        secure = SecureDubheSelector(small_federation, settled_config(h=2), seed=0,
                                     agent=KeyAgent(key_size=128, rng=random.Random(8)))
        registered = secure.stats.decrypt_seconds
        assert registered > 0
        secure.select(0)
        first = secure.stats.decrypt_seconds
        assert first > registered
        secure.select(1)
        assert secure.stats.decrypt_seconds > first

    def test_reregistration_keeps_the_history(self, small_federation):
        secure = SecureDubheSelector(small_federation, settled_config(), seed=0,
                                     agent=KeyAgent(key_size=128, rng=random.Random(5)))
        secure.select(0)
        before = secure.stats
        secure.refresh_registrations()
        assert secure.stats.messages == before.messages + 3 * len(small_federation)
        assert secure.agent.keypair is secure._scorer.keypair
        assert len(secure.select(1)) == 6

    def test_beats_random_on_skewed_federation(self, small_federation, secure_selector):
        rand = RandomSelector(small_federation, 6, seed=0)
        secure_bias = np.mean([secure_selector.bias_of(secure_selector.select(r))
                               for r in range(8)])
        random_bias = np.mean([rand.bias_of(rand.select(r)) for r in range(8)])
        assert secure_bias < random_bias + 0.05

    def test_last_bias_before_selection_raises(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(3))
        fresh = SecureDubheSelector(small_federation, settled_config(), seed=0, agent=agent)
        with pytest.raises(RuntimeError):
            _ = fresh.last_bias

    def test_plaintext_scoring_mode(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(4))
        selector = SecureDubheSelector(small_federation, settled_config(), seed=0,
                                       agent=agent, score_securely=False)
        selected = selector.select(0)
        assert len(selected) == 6

    def test_plaintext_scoring_books_nothing_per_select(self, small_federation):
        agent = KeyAgent(key_size=128, rng=random.Random(6))
        selector = SecureDubheSelector(small_federation, settled_config(), seed=0,
                                       agent=agent, score_securely=False)
        registered = selector.stats
        assert registered.messages == 3 * len(small_federation)
        key = agent.keypair
        for r in range(2):
            selector.select(r)
        assert selector.stats == registered
        assert agent.keypair is key    # no scoring key epoch was opened
