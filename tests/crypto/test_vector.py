"""Tests for EncryptedVector — the wire format of Dubhe registries."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

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

    @pytest.mark.parametrize("x", [0.0, 1.0, 0.1, -2.75, 123.456, -0.0001])
    def test_roundtrip(self, pk, sk, x):
        # a negative value wraps to the top half of Z_n and decrypts back signed
        out = EncryptedVector.encrypt(pk, [x]).decrypt(sk)
        assert out[0] == pytest.approx(x, abs=1e-9)

    def test_fresh_encryptions_differ_but_decrypt_alike(self, pk, sk):
        a = EncryptedVector.encrypt(pk, [0.7, 0.7])
        b = EncryptedVector.encrypt(pk, [0.7, 0.7])
        assert len(set(a.ciphertexts + b.ciphertexts)) == 4
        np.testing.assert_array_equal(a.decrypt(sk), b.decrypt(sk))

    def test_one_ciphertext_per_component(self, pk):
        assert len(EncryptedVector.encrypt(pk, [1, 2, 3]).ciphertexts) == 3

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
        total = (EncryptedVector.encrypt(pk, r1).add_(EncryptedVector.encrypt(pk, r2))
                 .add_(EncryptedVector.encrypt(pk, r3)))
        np.testing.assert_allclose(total.decrypt(sk), [0, 2, 0, 0, 1], atol=1e-9)

    def test_add_two_distributions(self, pk, sk):
        a = EncryptedVector.encrypt(pk, [0.5, 0.5])
        b = EncryptedVector.encrypt(pk, [0.25, 0.75])
        np.testing.assert_allclose(a.copy().add_(b).decrypt(sk), [0.75, 1.25], atol=1e-9)

    @pytest.mark.parametrize("a,b", [(0.25, 0.5), (0.25, -0.5), (-1.5, 0.5),
                                     (100.0, -100.0), (-0.125, -0.875)])
    def test_signed_sum(self, pk, sk, a, b):
        total = EncryptedVector.encrypt(pk, [a]).add_(EncryptedVector.encrypt(pk, [b]))
        assert total.decrypt(sk)[0] == pytest.approx(a + b, abs=1e-9)

    def test_copy_leaves_the_original(self, pk, sk):
        a = EncryptedVector.encrypt(pk, [0.5, 1.5])
        a.copy().add_(a)
        np.testing.assert_allclose(a.decrypt(sk), [0.5, 1.5], atol=1e-9)

    def test_length_mismatch_rejected(self, pk):
        with pytest.raises(ValueError):
            EncryptedVector.encrypt(pk, [1.0]).add_(EncryptedVector.encrypt(pk, [1.0, 2.0]))

    def test_key_mismatch_rejected(self, pk):
        other_pk = generate_keypair(key_size=128, rng=random.Random(3)).public_key
        with pytest.raises(ValueError):
            EncryptedVector.encrypt(pk, [1.0]).add_(EncryptedVector.encrypt(other_pk, [1.0]))

    def test_packed_operand_rejected(self, pk):
        packed = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=2)
        with pytest.raises(TypeError):
            EncryptedVector.encrypt(pk, [1.0]).add_(packed)


class TestSizes:
    def test_ciphertext_larger_than_plaintext(self, pk):
        values = np.full(56, 1.0 / 56)
        enc = EncryptedVector.encrypt(pk, values)
        assert enc.nbytes() > plaintext_vector_bytes(values)

    def test_nbytes_formula(self, pk):
        enc = EncryptedVector.encrypt(pk, [0.0] * 7)
        assert enc.nbytes() == 7 * pk.ciphertext_bytes()

    def test_plaintext_bytes_positive(self):
        assert plaintext_vector_bytes([0.1] * 56) > 0


@settings(STANDARD, max_examples=scaled_max_examples(15))
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
    out = a.add_(b).decrypt(kp.private_key)
    np.testing.assert_allclose(out, np.asarray(values) + np.asarray(values[::-1]), atol=1e-8)
