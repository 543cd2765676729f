"""Unit and property-based tests for the Paillier cryptosystem."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(key_size=128, rng=random.Random(2024))


@pytest.fixture(scope="module")
def pk(keypair):
    return keypair.public_key


@pytest.fixture(scope="module")
def sk(keypair):
    return keypair.private_key


class TestKeyGeneration:
    def test_key_size_matches_request(self, pk):
        assert pk.key_size == 128

    def test_keypair_unpacking(self):
        kp = generate_keypair(key_size=64, rng=random.Random(1))
        public, private = kp
        assert public is kp.public_key
        assert private is kp.private_key

    def test_private_key_requires_matching_factors(self, pk):
        with pytest.raises(ValueError):
            PaillierPrivateKey(pk, 3, 5)

    def test_equal_factors_rejected(self):
        kp = generate_keypair(key_size=64, rng=random.Random(3))
        p = kp.private_key.p
        with pytest.raises(ValueError):
            PaillierPrivateKey(PaillierPublicKey(p * p), p, p)

    def test_tiny_key_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(key_size=8)

    def test_invalid_modulus_rejected(self):
        with pytest.raises(ValueError):
            PaillierPublicKey(2)

    def test_public_key_equality(self, pk):
        clone = PaillierPublicKey(pk.n)
        assert clone == pk

    def test_reproducible_keygen_with_seed(self):
        a = generate_keypair(key_size=64, rng=random.Random(99))
        b = generate_keypair(key_size=64, rng=random.Random(99))
        assert a.public_key.n == b.public_key.n


class TestEncryptDecrypt:
    @pytest.mark.parametrize("m", [0, 1, 2, 255, 10_000, 123456789])
    def test_roundtrip_small_values(self, pk, sk, m):
        assert sk.raw_decrypt(pk.raw_encrypt(m)) == m

    def test_roundtrip_near_modulus(self, pk, sk):
        m = pk.n - 1
        assert sk.raw_decrypt(pk.raw_encrypt(m)) == m

    def test_ciphertext_is_randomised(self, pk):
        assert pk.raw_encrypt(42) != pk.raw_encrypt(42)

    def test_fixed_r_is_deterministic(self, pk):
        assert (pk.raw_encrypt(42, rng=random.Random(3))
                == pk.raw_encrypt(42, rng=random.Random(3))
                == pk.raw_encrypt(42, rn_value=pk.raw_noise(
                    pk.get_random_lt_n(random.Random(3)))))

    def test_non_int_plaintext_rejected(self, pk):
        with pytest.raises(TypeError):
            pk.raw_encrypt(1.5)

    def test_non_int_ciphertext_rejected(self, sk):
        with pytest.raises(TypeError):
            sk.raw_decrypt("junk")

    def test_ciphertext_bytes_positive(self, pk):
        assert pk.ciphertext_bytes() == (pk.nsquare.bit_length() + 7) // 8


class TestHomomorphism:
    """The ciphertext product and power the vector folds and ``scale`` use."""

    def test_add_two_ciphertexts(self, pk, sk):
        c = pk.raw_encrypt(17) * pk.raw_encrypt(25) % pk.nsquare
        assert sk.raw_decrypt(c) == 42

    def test_scalar_multiplication(self, pk, sk):
        c = pow(pk.raw_encrypt(7), 6, pk.nsquare)
        assert sk.raw_decrypt(c) == 42

    def test_sum_of_many(self, pk, sk):
        values = list(range(50))
        total = pk.raw_encrypt(0)
        for v in values:
            total = total * pk.raw_encrypt(v) % pk.nsquare
        assert sk.raw_decrypt(total) == sum(values)

    def test_addition_wraps_modulo_n(self, pk, sk):
        c = pk.raw_encrypt(pk.n - 1) * pk.raw_encrypt(2) % pk.nsquare
        assert sk.raw_decrypt(c) == 1


NOISE_KEY_SIZES = (16, 24, 32, 64, 128, 256, 512)


@lru_cache(maxsize=None)
def _noise_keypair(key_size, seed):
    return generate_keypair(key_size, rng=random.Random(1000 * key_size + seed))


class TestKeyHolderNoise:
    """``sk.raw_noise`` is the CRT spelling of ``pk.raw_noise`` — same integer."""

    @settings(STANDARD, max_examples=scaled_max_examples(60))
    @given(key_size=st.sampled_from(NOISE_KEY_SIZES),
           seed=st.integers(min_value=0, max_value=2),
           x=st.integers(min_value=0, max_value=2**1024))
    def test_property_equals_the_full_exponentiation(self, key_size, seed, x):
        pk, sk = _noise_keypair(key_size, seed)
        r = x % pk.n
        assert sk.raw_noise(r) == pk.raw_noise(r) == pow(r, pk.n, pk.nsquare)

    @pytest.mark.parametrize("key_size", NOISE_KEY_SIZES)
    def test_edges_including_r_not_coprime_to_n(self, key_size):
        pk, sk = _noise_keypair(key_size, 0)
        n, p, q = pk.n, sk.p, sk.q
        for r in (0, 1, 2, n - 1, p, q, 7 * p % n, 11 * q % n, (n - p) % n):
            assert sk.raw_noise(r) == pow(r, n, pk.nsquare), r

    def test_factor_order_is_irrelevant(self):
        pk, sk = _noise_keypair(64, 0)
        swapped = PaillierPrivateKey(pk, sk.q, sk.p)
        for r in (1, sk.p, sk.q, pk.n - 1, 123456789 % pk.n):
            assert swapped.raw_noise(r) == sk.raw_noise(r) == pk.raw_noise(r)

    def test_every_public_encrypt_path_uses_the_one_noise_term(self, pk):
        r = pk.get_random_lt_n(random.Random(5))
        rn = pk.raw_noise(r)
        bare = (1 + pk.n * 42) % pk.nsquare  # g^m with g = n + 1
        assert pk.raw_encrypt(42, rn_value=pk.raw_noise(r)) == bare * rn % pk.nsquare
        assert pk.raw_encrypt(42, rng=random.Random(5)) == bare * rn % pk.nsquare


@settings(STANDARD, max_examples=scaled_max_examples(25))
@given(a=st.integers(min_value=0, max_value=10**12),
       b=st.integers(min_value=0, max_value=10**12))
def test_property_additive_homomorphism(a, b):
    """Dec(Enc(a) ⊕ Enc(b)) == a + b for arbitrary bounded integers."""
    kp = _module_keypair()
    pk, sk = kp.public_key, kp.private_key
    c = pk.raw_encrypt(a) * pk.raw_encrypt(b) % pk.nsquare
    assert sk.raw_decrypt(c) == a + b


@settings(STANDARD, max_examples=scaled_max_examples(25))
@given(a=st.integers(min_value=0, max_value=10**9),
       k=st.integers(min_value=0, max_value=10**4))
def test_property_scalar_homomorphism(a, k):
    """Dec(Enc(a)^k) == k * a for arbitrary bounded integers."""
    kp = _module_keypair()
    pk, sk = kp.public_key, kp.private_key
    assert sk.raw_decrypt(pow(pk.raw_encrypt(a), k, pk.nsquare)) == a * k


_CACHED_KEYPAIR = None


def _module_keypair():
    global _CACHED_KEYPAIR
    if _CACHED_KEYPAIR is None:
        _CACHED_KEYPAIR = generate_keypair(key_size=128, rng=random.Random(7))
    return _CACHED_KEYPAIR
