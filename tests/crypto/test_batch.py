"""Tests for precomputed noise (NoisePool) and parallel batch crypto."""

import random
import threading

import numpy as np
import pytest

from repro.crypto.batch import BatchCryptoExecutor, encrypt_one
from repro.crypto.encoding import DEFAULT_BASE, DEFAULT_PRECISION
from repro.crypto.packing import PackedEncryptedVector
from repro.crypto.paillier import NoisePool, generate_keypair
from repro.crypto.vector import EncryptedVector


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(key_size=128, rng=random.Random(314))


@pytest.fixture(scope="module")
def pk(keypair):
    return keypair.public_key


@pytest.fixture(scope="module")
def sk(keypair):
    return keypair.private_key


class TestRawEncryptFastPaths:
    def test_rn_value_matches_r_value(self, pk):
        r = pk.get_random_lt_n(random.Random(1))
        rn = pow(r, pk.n, pk.nsquare)
        assert pk.raw_encrypt(42, r_value=r) == pk.raw_encrypt(42, rn_value=rn)

    def test_gcd_skip_fast_path_stays_in_range(self, pk):
        rng = random.Random(4)
        for _ in range(32):
            r = pk.get_random_lt_n(rng, check_coprime=False)
            assert 1 <= r < pk.n


class TestNoisePool:
    def test_take_many_uses_the_refilled_terms_first(self, pk):
        pool = NoisePool(pk, rng=random.Random(0))
        pool.refill(3)
        terms = pool.take_many(3)
        assert all(0 < term < pk.nsquare for term in terms)
        assert pool.generated == 3
        pool.take_many(1)
        assert pool.generated == 4  # the pool ran dry: one generated inline

    def test_take_many_covers_shortfall(self, pk):
        pool = NoisePool(pk, rng=random.Random(2))
        pool.refill(2)
        terms = pool.take_many(6)
        assert len(terms) == 6
        assert pool.generated == 6

    def test_terms_decrypt_correctly(self, pk, sk):
        pool = NoisePool(pk, rng=random.Random(3))
        for term in pool.take_many(5):
            assert sk.raw_decrypt(pk.raw_encrypt(11, rn_value=term)) == 11

    def test_thread_safety(self, pk):
        pool = NoisePool(pk, rng=random.Random(4))
        pool.refill(64)
        taken = []
        lock = threading.Lock()

        def worker():
            got = pool.take_many(8)
            with lock:
                taken.extend(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(taken) == 64
        assert len(set(taken)) == 64  # no term handed out twice
        assert pool.generated == 64

    def test_private_and_public_pools_yield_the_same_terms_in_order(self, pk,
                                                                    sk):
        pools = [NoisePool(key, rng=random.Random(5)) for key in (sk, pk)]
        drawn = []
        for pool in pools:
            pool.refill(3)
            drawn.append(pool.take_many(1) + pool.take_many(5) + pool.take_many(1))
        assert drawn[0] == drawn[1]
        assert [pool.generated for pool in pools] == [7, 7]
        assert pools[0].public_key is pools[1].public_key is pk

    def test_pickling_is_refused(self, sk):
        import pickle

        pool = NoisePool(sk, rng=random.Random(7))
        pool.refill(2)
        # neither pooled terms nor a seeded rng may cross a process boundary
        with pytest.raises(TypeError):
            pickle.dumps(pool)

    def test_invalid_arguments(self, pk):
        pool = NoisePool(pk)
        with pytest.raises(ValueError):
            pool.refill(-1)
        with pytest.raises(ValueError):
            pool.take_many(-1)


class TestBatchCryptoExecutor:
    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(7).uniform(0, 1, (6, 10))

    def test_roundtrip_per_component(self, pk, sk, matrix):
        executor = BatchCryptoExecutor()
        encrypted = executor.encrypt_many(pk, matrix)
        assert all(isinstance(e, EncryptedVector) for e in encrypted)
        for vector, expected in zip(encrypted, matrix):
            np.testing.assert_allclose(vector.decrypt(sk), expected, atol=1e-12)

    def test_roundtrip_packed(self, pk, sk, matrix):
        executor = BatchCryptoExecutor()
        encrypted = executor.encrypt_many(pk, matrix, packed=True, max_weight=8)
        assert all(isinstance(e, PackedEncryptedVector) for e in encrypted)
        for vector, expected in zip(encrypted, matrix):
            np.testing.assert_allclose(vector.decrypt(sk), expected, atol=1e-12)

    def test_prefilled_pool_feeds_every_encryption(self, pk, sk):
        vectors = np.random.default_rng(9).uniform(0, 1, (3, 4))
        terms = NoisePool(pk, rng=random.Random(10)).take_many(vectors.size)
        pool = NoisePool(sk, rng=random.Random(10))
        pool.refill(vectors.size)
        encrypted = BatchCryptoExecutor().encrypt_many(pk, vectors, noise=pool)
        # exactly the prefilled terms were used, none generated on top
        assert pool.generated == vectors.size
        used = sorted(c * pow((1 + pk.n * m) % pk.nsquare, -1, pk.nsquare)
                      % pk.nsquare
                      for vec in encrypted
                      for c, m in zip(vec.ciphertexts,
                                      map(sk.raw_decrypt, vec.ciphertexts)))
        assert used == sorted(terms)

    def test_seeded_rng_reproduces_ciphertexts(self, pk, matrix):
        runs = [BatchCryptoExecutor().encrypt_many(pk, matrix, packed=True,
                                                   max_weight=8,
                                                   rng=random.Random(11))
                for _ in range(2)]
        assert [v.ciphertexts for v in runs[0]] == [v.ciphertexts for v in runs[1]]

    def test_empty_input(self, pk):
        assert BatchCryptoExecutor().encrypt_many(pk, []) == []

    @pytest.mark.parametrize("packed", [False, True])
    def test_encrypt_many_is_encrypt_one_per_vector(self, pk, matrix, packed):
        batch = BatchCryptoExecutor().encrypt_many(
            pk, matrix, packed=packed, max_weight=8, rng=random.Random(5))
        rng = random.Random(5)
        one_by_one = [encrypt_one(pk, row, packed, 8, DEFAULT_BASE,
                                  DEFAULT_PRECISION, 1.0, None, rng)
                      for row in matrix]
        assert [v.ciphertexts for v in batch] == [v.ciphertexts for v in one_by_one]
