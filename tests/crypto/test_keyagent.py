"""Tests for the key-agent role of the secure registration protocol."""

import random

import numpy as np
import pytest

from repro.crypto import keyagent
from repro.crypto.keyagent import KeyAgent
from repro.crypto.packing import PackedEncryptedVector
from repro.crypto.vector import EncryptedVector


@pytest.fixture()
def agent():
    return KeyAgent(key_size=128, rng=random.Random(42))


@pytest.fixture()
def keygens(monkeypatch):
    """Every round key the agent module generates, in order."""
    generated = []
    original = keyagent.generate_keypair
    monkeypatch.setattr(
        keyagent, "generate_keypair",
        lambda *args, **kwargs: generated.append(original(*args, **kwargs))
        or generated[-1])
    return generated


class TestKeyLifecycle:
    def test_lazy_keypair(self, agent, keygens):
        kp = agent.keypair
        assert kp.public_key.key_size == 128
        assert agent.keypair is kp
        assert keygens == [kp]

    def test_new_round_rotates_key(self, agent, keygens):
        first = agent.new_round()
        second = agent.new_round()
        assert first.public_key.n != second.public_key.n
        assert agent.keypair is second
        assert keygens == [first, second]

    def test_seeded_agents_generate_the_same_round_keys(self):
        a = KeyAgent(key_size=128, rng=random.Random(7))
        b = KeyAgent(key_size=128, rng=random.Random(7))
        for _ in range(2):
            assert a.new_round().public_key == b.new_round().public_key


class TestDecryptionServices:
    def test_decrypt_vector(self, agent):
        vec = EncryptedVector.encrypt(agent.keypair.public_key, [0.25, 0.75])
        out = agent.decrypt_vector(vec)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-9)

    def test_decrypt_packed_vector(self, agent):
        vec = PackedEncryptedVector.encrypt(agent.keypair.public_key,
                                            [0.25, 0.5, 0.125], max_weight=4)
        assert len(vec.ciphertexts) < 3
        np.testing.assert_array_equal(agent.decrypt_vector(vec), [0.25, 0.5, 0.125])

    def test_rotated_key_no_longer_decrypts_the_old_round(self, agent):
        old = EncryptedVector.encrypt(agent.keypair.public_key, [0.5])
        agent.new_round()
        with pytest.raises(ValueError):
            agent.decrypt_vector(old)
        fresh = EncryptedVector.encrypt(agent.keypair.public_key, [0.5])
        np.testing.assert_allclose(agent.decrypt_vector(fresh), [0.5], atol=1e-9)
