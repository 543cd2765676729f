"""Tests for fixed-point encoding of floats for Paillier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro.crypto.encoding import DEFAULT_PRECISION, EncodedNumber, FixedPointEncoder
from repro.crypto.paillier import generate_keypair


@pytest.fixture(scope="module")
def pk():
    return generate_keypair(key_size=128, rng=random.Random(11)).public_key


class TestEncoderBasics:
    def test_default_scale(self):
        enc = FixedPointEncoder()
        assert enc.scale == 10**DEFAULT_PRECISION

    def test_encode_float(self):
        enc = FixedPointEncoder()
        assert enc.encode(0.125) == EncodedNumber(125 * 10**9)

    def test_encode_int(self):
        enc = FixedPointEncoder()
        assert enc.encode(7).encoding == 7 * enc.scale

    def test_encode_negative(self):
        enc = FixedPointEncoder()
        assert enc.encode(-0.4).encoding == -4 * 10**11

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            FixedPointEncoder().encode(True)

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError):
            FixedPointEncoder().encode("0.5")

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            FixedPointEncoder(base=1)

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            FixedPointEncoder(precision=-1)


class TestModularMapping:
    def test_positive_maps_to_itself(self, pk):
        enc = FixedPointEncoder()
        e = enc.encode(0.62)
        assert enc.to_modular(e, pk) == e.encoding

    def test_negative_wraps_to_the_top_half(self, pk):
        enc = FixedPointEncoder()
        e = enc.encode(-3.5)
        assert enc.to_modular(e, pk) == pk.n + e.encoding > pk.n // 2

    def test_overflow_detected(self, pk):
        enc = FixedPointEncoder(precision=0)
        huge = EncodedNumber(pk.n, base=10, precision=0)
        with pytest.raises(OverflowError):
            enc.to_modular(huge, pk)


@settings(STANDARD, max_examples=scaled_max_examples(200))
@given(x=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False))
def test_property_encode_decode_roundtrip(x):
    """The encoding recovers the value to within the fixed-point resolution."""
    enc = FixedPointEncoder()
    assert enc.encode(x).encoding / enc.scale == pytest.approx(x, abs=2.0 / enc.scale)


@settings(STANDARD, max_examples=scaled_max_examples(100))
@given(
    a=st.floats(min_value=0, max_value=1, allow_nan=False),
    b=st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_property_encoding_is_additive(a, b):
    """Fixed-point encoding commutes with addition (up to one rounding ulp)."""
    enc = FixedPointEncoder()
    direct = enc.encode(a + b).encoding
    summed = enc.encode(a).encoding + enc.encode(b).encoding
    assert abs(summed - direct) <= 2
