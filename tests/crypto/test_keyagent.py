"""Tests for the key-agent role of the secure registration protocol."""

import random

import numpy as np
import pytest

from repro.crypto.keyagent import AgentStats, KeyAgent
from repro.crypto.vector import EncryptedVector


@pytest.fixture()
def agent():
    return KeyAgent(key_size=128, rng=random.Random(42))


class TestKeyLifecycle:
    def test_lazy_keypair(self, agent):
        kp = agent.keypair
        assert kp.public_key.key_size == 128
        assert agent.stats.keypairs_generated == 1

    def test_new_round_rotates_key(self, agent):
        first = agent.new_round().public_key.n
        second = agent.new_round().public_key.n
        assert first != second
        assert agent.stats.keypairs_generated == 2

    def test_dispatch_counts(self, agent):
        agent.dispatch_public_key(100)
        agent.dispatch_private_key(100)
        assert agent.stats.key_dispatches == 200

    def test_negative_dispatch_rejected(self, agent):
        with pytest.raises(ValueError):
            agent.dispatch_public_key(-1)

    def test_stats_reset(self, agent):
        agent.dispatch_public_key(5)
        agent.stats.reset()
        assert agent.stats == AgentStats()


class TestDecryptionServices:
    def test_decrypt_vector_counts_and_times(self, agent):
        pk = agent.dispatch_public_key(1)
        vec = EncryptedVector.encrypt(pk, [0.25, 0.75])
        out = agent.decrypt_vector(vec)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-9)
        assert agent.stats.decryptions == 1
        assert agent.stats.decrypt_seconds > 0
