"""Tests for EncryptedVector — the wire format of Dubhe registries."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples

from repro.crypto.packing import PackedEncryptedVector
from repro.crypto.paillier import generate_keypair
from repro.crypto.vector import EncryptedVector, plaintext_vector_bytes


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(key_size=128, rng=random.Random(555))


@pytest.fixture(scope="module")
def pk(keypair):
    return keypair.public_key


@pytest.fixture(scope="module")
def sk(keypair):
    return keypair.private_key


class TestEncryptDecrypt:
    def test_roundtrip_registry_like_vector(self, pk, sk):
        registry = np.zeros(56)
        registry[17] = 1.0
        out = EncryptedVector.encrypt(pk, registry).decrypt(sk)
        np.testing.assert_allclose(out, registry, atol=1e-9)

    def test_roundtrip_distribution_vector(self, pk, sk):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        out = EncryptedVector.encrypt(pk, p).decrypt(sk)
        np.testing.assert_allclose(out, p, atol=1e-9)

    def test_len(self, pk):
        assert len(EncryptedVector.encrypt(pk, [1, 2, 3])) == 3

    def test_wrong_key_rejected(self, pk):
        other = generate_keypair(key_size=128, rng=random.Random(9)).private_key
        with pytest.raises(ValueError):
            EncryptedVector.encrypt(pk, [1.0]).decrypt(other)


class TestHomomorphicAggregation:
    def test_sum_of_registries_counts_categories(self, pk, sk):
        # three clients register: two in slot 1, one in slot 4
        r1 = [0, 1, 0, 0, 0]
        r2 = [0, 1, 0, 0, 0]
        r3 = [0, 0, 0, 0, 1]
        total = (EncryptedVector.encrypt(pk, r1) + EncryptedVector.encrypt(pk, r2)
                 + EncryptedVector.encrypt(pk, r3))
        np.testing.assert_allclose(total.decrypt(sk), [0, 2, 0, 0, 1], atol=1e-9)

    def test_add_two_distributions(self, pk, sk):
        a = EncryptedVector.encrypt(pk, [0.5, 0.5])
        b = EncryptedVector.encrypt(pk, [0.25, 0.75])
        np.testing.assert_allclose((a + b).decrypt(sk), [0.75, 1.25], atol=1e-9)

    def test_scale_by_int(self, pk, sk):
        a = EncryptedVector.encrypt(pk, [0.5, 1.5])
        np.testing.assert_allclose(a.scale(3).decrypt(sk), [1.5, 4.5], atol=1e-9)

    def test_scale_by_float_rejected(self, pk):
        with pytest.raises(TypeError):
            EncryptedVector.encrypt(pk, [1.0]).scale(0.5)

    def test_length_mismatch_rejected(self, pk):
        with pytest.raises(ValueError):
            EncryptedVector.encrypt(pk, [1.0]) + EncryptedVector.encrypt(pk, [1.0, 2.0])

    def test_key_mismatch_rejected(self, pk):
        other_pk = generate_keypair(key_size=128, rng=random.Random(3)).public_key
        with pytest.raises(ValueError):
            EncryptedVector.encrypt(pk, [1.0]) + EncryptedVector.encrypt(other_pk, [1.0])

    def test_packed_operand_rejected(self, pk):
        packed = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=2)
        with pytest.raises(TypeError):
            EncryptedVector.encrypt(pk, [1.0]).add_(packed)

    def test_add_notimplemented_for_other_types(self, pk):
        assert EncryptedVector.encrypt(pk, [1.0]).__add__(3) is NotImplemented


class TestSizesAndSerialization:
    def test_ciphertext_larger_than_plaintext(self, pk):
        values = np.full(56, 1.0 / 56)
        enc = EncryptedVector.encrypt(pk, values)
        assert enc.nbytes() > plaintext_vector_bytes(values)

    def test_nbytes_formula(self, pk):
        enc = EncryptedVector.encrypt(pk, [0.0] * 7)
        assert enc.nbytes() == 7 * pk.ciphertext_bytes()

    def test_serialization_roundtrip(self, pk, sk):
        values = np.array([0.0, 0.25, 1.0, 0.5])
        enc = EncryptedVector.encrypt(pk, values)
        restored = EncryptedVector.from_bytes(pk, enc.to_bytes())
        np.testing.assert_allclose(restored.decrypt(sk), values, atol=1e-9)

    def test_plaintext_bytes_positive(self):
        assert plaintext_vector_bytes([0.1] * 56) > 0


@settings(max_examples=scaled_max_examples(15), deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=8
    )
)
def test_property_vector_sum_matches_numpy(values):
    """Homomorphic sum of vectors equals the numpy sum of plaintexts."""
    kp = generate_keypair(key_size=128, rng=random.Random(13))
    a = EncryptedVector.encrypt(kp.public_key, values)
    b = EncryptedVector.encrypt(kp.public_key, values[::-1])
    out = (a + b).decrypt(kp.private_key)
    np.testing.assert_allclose(out, np.asarray(values) + np.asarray(values[::-1]), atol=1e-8)
