"""Tests for ciphertext packing — packed ↔ per-component equivalence."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples

from repro.crypto.packing import (DEFAULT_MAX_WEIGHT, PackedEncryptedVector,
                                  PackingScheme, StreamingTreeAggregator)
from repro.crypto.paillier import NoisePool, generate_keypair
from repro.crypto.vector import EncryptedVector


def fold(vectors):
    """The flat left-to-right fold of *vectors* (one running sum)."""
    aggregator = StreamingTreeAggregator(arity=None)
    for vector in vectors:
        aggregator.push(vector)
    return aggregator.combined()


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(key_size=256, rng=random.Random(777))


@pytest.fixture(scope="module")
def pk(keypair):
    return keypair.public_key


@pytest.fixture(scope="module")
def sk(keypair):
    return keypair.private_key


class TestPackingScheme:
    def test_many_slots_per_ciphertext(self, pk):
        scheme = PackingScheme(pk, vector_length=56, max_weight=100)
        assert scheme.slots_per_ciphertext > 1
        assert scheme.num_ciphertexts < 56
        assert scheme.num_ciphertexts == -(-56 // scheme.slots_per_ciphertext)

    def test_headroom_widens_slots(self, pk):
        narrow = PackingScheme(pk, 56, max_weight=2)
        wide = PackingScheme(pk, 56, max_weight=10_000)
        assert wide.slot_bits > narrow.slot_bits
        assert wide.slots_per_ciphertext <= narrow.slots_per_ciphertext

    def test_chunk_lengths_cover_vector(self, pk):
        scheme = PackingScheme(pk, 56, max_weight=100)
        lengths = scheme.chunk_lengths()
        assert sum(lengths) == 56
        assert len(lengths) == scheme.num_ciphertexts

    def test_slot_too_wide_for_modulus_rejected(self):
        tiny = generate_keypair(key_size=32, rng=random.Random(1)).public_key
        with pytest.raises(ValueError):
            PackingScheme(tiny, 8, max_weight=DEFAULT_MAX_WEIGHT)

    def test_invalid_arguments(self, pk):
        with pytest.raises(ValueError):
            PackingScheme(pk, 0)
        with pytest.raises(ValueError):
            PackingScheme(pk, 8, max_weight=0)
        with pytest.raises(ValueError):
            PackingScheme(pk, 8, max_abs_value=0.0)

    def test_encode_chunk_rejects_too_many_slots(self, pk):
        scheme = PackingScheme(pk, 56, max_weight=100)
        too_many = [0] * (scheme.slots_per_ciphertext + 2)
        with pytest.raises(OverflowError):
            scheme.encode_chunk(too_many)


class TestRoundtrip:
    def test_registry_like_vector(self, pk, sk):
        registry = np.zeros(56)
        registry[17] = 1.0
        out = PackedEncryptedVector.encrypt(pk, registry, max_weight=100).decrypt(sk)
        np.testing.assert_array_equal(out, registry)

    def test_negative_values(self, pk, sk):
        values = np.array([-1.0, -0.25, 0.0, 0.75, 1.0])
        out = PackedEncryptedVector.encrypt(pk, values, max_weight=16).decrypt(sk)
        np.testing.assert_array_equal(out, values)

    def test_matches_per_component_bitwise(self, pk, sk):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, 30)
        per_component = EncryptedVector.encrypt(pk, values).decrypt(sk)
        packed = PackedEncryptedVector.encrypt(pk, values, max_weight=50).decrypt(sk)
        np.testing.assert_array_equal(per_component, packed)

    def test_wrong_key_rejected(self, pk):
        other = generate_keypair(key_size=256, rng=random.Random(9)).private_key
        with pytest.raises(ValueError):
            PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4).decrypt(other)

    def test_len_is_logical_length(self, pk):
        packed = PackedEncryptedVector.encrypt(pk, np.zeros(56), max_weight=100)
        assert len(packed) == 56
        assert len(packed.ciphertexts) < 56

    def test_scheme_length_mismatch_rejected(self, pk):
        scheme = PackingScheme(pk, 8, max_weight=4)
        with pytest.raises(ValueError):
            PackedEncryptedVector.encrypt(pk, np.zeros(9), scheme=scheme)


class TestHomomorphicEquivalence:
    def test_add_scale_matches_per_component(self, pk, sk):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20)
        expected = (
            (EncryptedVector.encrypt(pk, a) + EncryptedVector.encrypt(pk, b))
            .scale(3).decrypt(sk)
        )
        got = (
            (PackedEncryptedVector.encrypt(pk, a, max_weight=60)
             + PackedEncryptedVector.encrypt(pk, b, max_weight=60))
            .scale(3).decrypt(sk)
        )
        np.testing.assert_array_equal(expected, got)

    def test_sum_counts_categories(self, pk, sk):
        registries = [[0, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
        total = fold([
            PackedEncryptedVector.encrypt(pk, r, max_weight=8) for r in registries
        ])
        np.testing.assert_array_equal(total.decrypt(sk), [0, 2, 0, 0, 1])

    def test_deep_sum_at_headroom_boundary(self, pk, sk):
        """A max_weight-deep sum of extreme values decodes exactly."""
        m = 50
        ones = [PackedEncryptedVector.encrypt(pk, np.ones(6), max_weight=m)
                for _ in range(m)]
        np.testing.assert_array_equal(fold(ones).decrypt(sk),
                                      np.full(6, float(m)))
        minus = [PackedEncryptedVector.encrypt(pk, -np.ones(6), max_weight=m)
                 for _ in range(m)]
        np.testing.assert_array_equal(fold(minus).decrypt(sk),
                                      np.full(6, -float(m)))

    def test_sum_beyond_headroom_rejected(self, pk):
        vs = [PackedEncryptedVector.encrypt(pk, [1.0], max_weight=3)
              for _ in range(4)]
        with pytest.raises(OverflowError):
            fold(vs)

    def test_scale_beyond_headroom_rejected(self, pk):
        v = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=3)
        with pytest.raises(OverflowError):
            v.scale(4)

    def test_scale_nonpositive_or_float_rejected(self, pk):
        v = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4)
        with pytest.raises(TypeError):
            v.scale(0.5)
        with pytest.raises(ValueError):
            v.scale(-1)
        with pytest.raises(ValueError):
            v.scale(0)

    def test_incompatible_schemes_rejected(self, pk):
        a = PackedEncryptedVector.encrypt(pk, [1.0, 0.5], max_weight=4)
        b = PackedEncryptedVector.encrypt(pk, [1.0, 0.5], max_weight=8)
        c = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a + c

    def test_key_mismatch_rejected(self, pk):
        other_pk = generate_keypair(key_size=256, rng=random.Random(3)).public_key
        a = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4)
        b = PackedEncryptedVector.encrypt(other_pk, [1.0], max_weight=4)
        with pytest.raises(ValueError):
            a + b

    def test_add_notimplemented_for_other_types(self, pk):
        packed = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4)
        assert packed.__add__(3) is NotImplemented

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            fold([])

    def test_add_inplace_does_not_mutate_operand(self, pk, sk):
        a = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=8)
        b = PackedEncryptedVector.encrypt(pk, [0.5], max_weight=8)
        b_cts = list(b.ciphertexts)
        a.copy().add_(b)
        assert b.ciphertexts == b_cts and b.weight == 1


class TestSizesAndSerialization:
    def test_fewer_wire_bytes_than_per_component(self, pk):
        values = np.full(56, 1.0 / 56)
        packed = PackedEncryptedVector.encrypt(pk, values, max_weight=100)
        per_component = EncryptedVector.encrypt(pk, values)
        assert packed.nbytes() < per_component.nbytes()
        assert packed.nbytes() == len(packed.ciphertexts) * pk.ciphertext_bytes()

    def test_serialization_roundtrip(self, pk, sk):
        values = np.array([-0.5, 0.0, 0.25, 1.0])
        packed = PackedEncryptedVector.encrypt(pk, values, max_weight=12)
        restored = PackedEncryptedVector.from_bytes(pk, packed.to_bytes())
        assert restored.weight == packed.weight
        assert restored.scheme.compatible_with(packed.scheme)
        np.testing.assert_array_equal(restored.decrypt(sk), values)

    def test_serialization_preserves_weight(self, pk, sk):
        a = PackedEncryptedVector.encrypt(pk, [0.5], max_weight=8)
        summed = a + PackedEncryptedVector.encrypt(pk, [0.25], max_weight=8)
        restored = PackedEncryptedVector.from_bytes(pk, summed.to_bytes())
        assert restored.weight == 2
        np.testing.assert_array_equal(restored.decrypt(sk), [0.75])

    def test_from_bytes_scale_mismatch_rejected(self, pk):
        packed = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4)
        with pytest.raises(ValueError):
            PackedEncryptedVector.from_bytes(pk, packed.to_bytes(), precision=6)

    def test_from_bytes_truncated_payload_rejected(self, pk):
        payload = PackedEncryptedVector.encrypt(pk, [1.0, 0.5], max_weight=4).to_bytes()
        with pytest.raises(ValueError):
            PackedEncryptedVector.from_bytes(pk, payload[:-3])
        with pytest.raises(ValueError):
            PackedEncryptedVector.from_bytes(pk, payload[:10])

    def test_from_bytes_foreign_key_width_rejected(self, pk):
        other_pk = generate_keypair(key_size=128, rng=random.Random(4)).public_key
        payload = PackedEncryptedVector.encrypt(pk, [1.0], max_weight=4).to_bytes()
        with pytest.raises(ValueError):
            PackedEncryptedVector.from_bytes(other_pk, payload)


class TestNoise:
    def test_pool_noise_decrypts_identically(self, pk, sk):
        pool = NoisePool(pk, rng=random.Random(5))
        values = np.array([0.125, -0.875, 1.0])
        with_pool = PackedEncryptedVector.encrypt(pk, values, max_weight=8,
                                                  noise=pool).decrypt(sk)
        without = PackedEncryptedVector.encrypt(pk, values, max_weight=8).decrypt(sk)
        np.testing.assert_array_equal(with_pool, without)

    def test_pre_drawn_sequence_accepted(self, pk, sk):
        pool = NoisePool(pk, rng=random.Random(6))
        scheme = PackingScheme(pk, 3, max_weight=8, max_abs_value=4.0)
        terms = pool.take_many(scheme.num_ciphertexts)
        out = PackedEncryptedVector.encrypt(pk, [1.0, 2.0, 3.0], scheme=scheme,
                                            noise=terms)
        np.testing.assert_array_equal(out.decrypt(sk), [1.0, 2.0, 3.0])

    def test_short_noise_sequence_rejected(self, pk):
        with pytest.raises(ValueError):
            PackedEncryptedVector.encrypt(pk, np.zeros(56), max_weight=100, noise=[])

    def test_value_above_bound_rejected(self, pk):
        with pytest.raises(OverflowError):
            PackedEncryptedVector.encrypt(pk, [2.5], max_weight=4, max_abs_value=1.0)


@settings(max_examples=scaled_max_examples(15), deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=12
    ),
    scalar=st.integers(min_value=1, max_value=4),
)
def test_property_packed_equals_per_component(values, scalar):
    """encrypt → add → scale → decrypt is bit-identical in both pipelines."""
    kp = generate_keypair(key_size=256, rng=random.Random(13))
    pk, sk = kp.public_key, kp.private_key
    per_component = (
        (EncryptedVector.encrypt(pk, values) + EncryptedVector.encrypt(pk, values[::-1]))
        .scale(scalar).decrypt(sk)
    )
    packed = (
        (PackedEncryptedVector.encrypt(pk, values, max_weight=16)
         + PackedEncryptedVector.encrypt(pk, values[::-1], max_weight=16))
        .scale(scalar).decrypt(sk)
    )
    np.testing.assert_array_equal(per_component, packed)
