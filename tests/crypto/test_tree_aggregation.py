"""Property tests: every fold arity ≡ the left-to-right fold, bit-identically.

Paillier addition is ciphertext multiplication mod n² — associative and
commutative — so :class:`StreamingTreeAggregator` at ANY arity must yield the
very same ciphertext integers as the flat left-to-right accumulator
(``arity=None``).  These tests assert that exact integer identity (not just
equal decryptions) for arbitrary (N, arity, packing width), including N not a
multiple of the arity and single-client trees, pin the fold depth of every
arity for N = 1..64, and check the server refuses a mismatched upload the
moment it arrives.
"""

import random
from functools import reduce
from math import ceil, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro.core.secure import SecureAggregationServer
from repro.crypto.packing import (
    PackedEncryptedVector,
    PackingScheme,
    StreamingTreeAggregator,
)
from repro.crypto.paillier import generate_keypair
from repro.crypto.vector import EncryptedVector

ARITIES = [None, 2, 3, 4, 5]

#: ``depth`` after N = 1..64 pushes, per arity: the table of the digit-list
#: aggregator the running-partial one replaced (``arity=None`` is N − 1).
DEPTHS = {
    2: [0, 1, 2, 2, 3, 3, 3, 3] + [4] * 8 + [5] * 16 + [6] * 32,
    3: [0, 1, 2, 3, 3, 3, 4, 4, 4] + [5] * 9 + [6] * 9 + [7] * 27 + [8] * 10,
    4: [0, 1, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6] + [7] * 16
       + [8] * 16 + [9] * 16,
    5: [0, 1, 2, 3, 4] + [5] * 5 + [6] * 5 + [7] * 5 + [8] * 5 + [9] * 25
       + [10] * 14,
}


def _plus(a, b):
    """The sum of two encrypted vectors, neither mutated."""
    return a.copy().add_(b)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(key_size=64, rng=random.Random(99))


@pytest.fixture(scope="module")
def pk(keypair):
    return keypair.public_key


@pytest.fixture(scope="module")
def sk(keypair):
    return keypair.private_key


def _packed_vectors(pk, n, length, values_seed, max_weight):
    rng = np.random.default_rng(values_seed)
    scheme = PackingScheme.for_counts(pk, length, max_weight=max_weight)
    rows = rng.integers(0, 2, size=(n, length)).astype(float)
    return [PackedEncryptedVector.encrypt(pk, row, scheme=scheme)
            for row in rows]


def pushed(arity, vectors):
    aggregator = StreamingTreeAggregator(arity=arity)
    for v in vectors:
        aggregator.push(v)
    return aggregator


class TestEveryArityEqualsTheFlatFold:
    @settings(STANDARD, max_examples=scaled_max_examples(20))
    @given(
        arity=st.sampled_from(ARITIES),
        length=st.integers(min_value=1, max_value=20),
        values_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_combined_equals_left_to_right_fold_for_n_up_to_64(
            self, pk, arity, length, values_seed):
        vectors = _packed_vectors(pk, 64, length, values_seed, max_weight=64)
        aggregator = StreamingTreeAggregator(arity=arity)
        running = None
        for n, v in enumerate(vectors, start=1):
            aggregator.push(v)
            running = v.copy() if running is None else running.add_(v)
            combined = aggregator.combined()
            assert combined.ciphertexts == running.ciphertexts  # exact ints
            assert combined.weight == running.weight == n
            assert aggregator.count == n

    @pytest.mark.parametrize("arity", ARITIES)
    def test_depth_table(self, arity):
        aggregator = StreamingTreeAggregator(arity=arity)
        probe = _probe()
        depths = []
        for _ in range(64):
            aggregator.push(probe)
            depths.append(aggregator.depth)
        expected = list(range(64)) if arity is None else DEPTHS[arity]
        assert depths == expected

    @settings(STANDARD, max_examples=scaled_max_examples(20))
    @given(
        n=st.integers(min_value=1, max_value=40),
        arity=st.integers(min_value=2, max_value=5),
        length=st.integers(min_value=1, max_value=20),
        values_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_tree_equals_flat_bit_identically(self, pk, n, arity, length,
                                              values_seed):
        vectors = _packed_vectors(pk, n, length, values_seed, max_weight=64)
        flat = pushed(None, vectors).combined()
        tree = pushed(arity, vectors).combined()
        assert tree.ciphertexts == flat.ciphertexts  # exact integers
        assert tree.weight == flat.weight

    def test_inputs_never_mutated(self, pk, sk):
        vectors = _packed_vectors(pk, 7, 4, values_seed=3, max_weight=16)
        snapshots = [list(v.ciphertexts) for v in vectors]
        for arity in ARITIES:
            pushed(arity, vectors).combined()
        assert [list(v.ciphertexts) for v in vectors] == snapshots

    def test_per_component_vectors_fold_too(self, pk, sk):
        rng = np.random.default_rng(5)
        rows = rng.random((9, 3))
        vectors = [EncryptedVector.encrypt(pk, row) for row in rows]
        flat = reduce(_plus, vectors)
        tree = pushed(3, vectors).combined()
        assert tree.ciphertexts == flat.ciphertexts
        np.testing.assert_array_equal(tree.decrypt(sk), flat.decrypt(sk))

    def test_invalid_arguments(self):
        for arity in (0, 1):
            with pytest.raises(ValueError):
                StreamingTreeAggregator(arity=arity)
        for arity in ARITIES:
            with pytest.raises(ValueError):
                StreamingTreeAggregator(arity=arity).combined()


class TestStreamingDepth:
    def test_single_client_tree(self, pk):
        agg = StreamingTreeAggregator(arity=2)
        (vector,) = _packed_vectors(pk, 1, 3, values_seed=1, max_weight=4)
        agg.push(vector)
        assert agg.depth == 0
        assert agg.partials == 1
        assert agg.combined().ciphertexts == vector.ciphertexts

    @pytest.mark.parametrize("arity,m", [(2, 1), (2, 3), (2, 6), (3, 2), (4, 2)])
    def test_exact_power_depth(self, arity, m):
        # N = arity^m merges into one partial of depth m * (arity - 1)
        agg = StreamingTreeAggregator(arity=arity)
        probe = _probe()
        for _ in range(arity**m):
            agg.push(probe)
        assert agg.partials == 1
        assert agg.depth == m * (arity - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000, 12345])
    def test_logarithmic_depth_bound(self, n):
        agg = StreamingTreeAggregator(arity=2)
        probe = _probe()
        for _ in range(n):
            agg.push(probe)
        assert agg.count == n
        # binary counter: ceil(log2 N) levels, plus at most one extra
        # addition per level when combining the leftover partials
        bound = 2 * ceil(log(n, 2)) + 1 if n > 1 else 0
        assert agg.depth <= bound
        assert agg.partials <= ceil(log(n, 2)) + 1 if n > 1 else 1

def _probe():
    class Probe:
        def copy(self):
            return self

        def add_(self, other):
            return self

    return Probe()


class TestServerTreeMode:
    def test_tree_server_matches_flat_server(self, pk, sk):
        vectors = _packed_vectors(pk, 13, 6, values_seed=9, max_weight=32)
        flat_server = SecureAggregationServer(pk)
        tree_server = SecureAggregationServer(pk, arity=3)
        for v in vectors:
            flat_server.receive(v)
            tree_server.receive(v)
        flat_total = flat_server.aggregate()
        tree_total = tree_server.aggregate()
        assert tree_total.ciphertexts == flat_total.ciphertexts
        np.testing.assert_array_equal(tree_total.decrypt(sk),
                                      flat_total.decrypt(sk))
        assert flat_server.fold_depth == 12
        assert tree_server.fold_depth < 12

    def test_invalid_arity(self, pk):
        with pytest.raises(ValueError):
            SecureAggregationServer(pk, arity=1)

class TestMismatchedUploadsRefusedOnArrival:
    """An upload unlike the first one folded is refused by ``receive``.

    Two good uploads, then a bad third: at arity 2 the third starts a new
    digit, so no addition would ever compare it with the others before
    :meth:`~SecureAggregationServer.aggregate`.
    """

    @pytest.mark.parametrize("arity", ARITIES)
    def test_other_packing_scheme(self, pk, sk, arity):
        good = _packed_vectors(pk, 2, 5, values_seed=1, max_weight=8)
        (bad,) = _packed_vectors(pk, 1, 5, values_seed=2, max_weight=16)
        server = SecureAggregationServer(pk, arity=arity)
        for v in good:
            server.receive(v)
        with pytest.raises(ValueError, match="different schemes"):
            server.receive(bad)
        # refused before folding: the round carries on without it
        assert server.stats.messages == 2
        np.testing.assert_array_equal(server.aggregate().decrypt(sk),
                                      reduce(_plus, good).decrypt(sk))

    @pytest.mark.parametrize("arity", ARITIES)
    def test_other_vector_kind(self, pk, arity):
        good = _packed_vectors(pk, 2, 3, values_seed=3, max_weight=8)
        server = SecureAggregationServer(pk, arity=arity)
        for v in good:
            server.receive(v)
        with pytest.raises(TypeError):
            server.receive(EncryptedVector.encrypt(pk, [0.0, 1.0, 0.0]))
        assert server.stats.messages == 2

    @pytest.mark.parametrize("arity", ARITIES)
    def test_other_per_component_length(self, pk, arity):
        server = SecureAggregationServer(pk, arity=arity)
        for _ in range(2):
            server.receive(EncryptedVector.encrypt(pk, [1.0, 0.0]))
        with pytest.raises(ValueError, match="length mismatch"):
            server.receive(EncryptedVector.encrypt(pk, [1.0, 0.0, 0.0]))
        assert server.stats.messages == 2
