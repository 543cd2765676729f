"""Fixed-point encoding of numbers for Paillier encryption.

Paillier operates on integers modulo ``n``.  Dubhe must encrypt two kinds of
payloads:

* **registries** — vectors of small non-negative integers (0/1 indicators and
  their sums over clients), and
* **label distributions** ``p_l`` — vectors of floats in ``[0, 1]``.

Floats are mapped to integers with a fixed-point encoding
``encode(x) = round(x * BASE**precision)``.  Because the encoding is linear,
adding encoded values (homomorphically, under encryption) corresponds to
adding the original floats — exactly the aggregation Dubhe's server performs.
Negative values are supported by exploiting the upper half of ``Z_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .paillier import PaillierPublicKey

__all__ = ["FixedPointEncoder", "EncodedNumber", "DEFAULT_PRECISION", "DEFAULT_BASE"]

#: Number of fractional digits (in base :data:`DEFAULT_BASE`) kept by the
#: default encoder.  1e-12 resolution is far below the statistical noise of
#: any label-distribution estimate.
DEFAULT_PRECISION = 12

#: Base of the fixed-point representation.
DEFAULT_BASE = 10

Number = Union[int, float]


@dataclass(frozen=True)
class EncodedNumber:
    """An integer fixed-point representation of a number.

    Attributes
    ----------
    encoding:
        The signed integer ``round(value * base**precision)``.
    base, precision:
        Encoding parameters; the vector layer only combines ciphertexts
        encoded with the same ones.
    """

    encoding: int
    base: int = DEFAULT_BASE
    precision: int = DEFAULT_PRECISION


class FixedPointEncoder:
    """Encode floats as integers compatible with a Paillier modulus."""

    def __init__(self, base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION):
        if base < 2:
            raise ValueError("base must be >= 2")
        if precision < 0:
            raise ValueError("precision must be non-negative")
        self.base = base
        self.precision = precision
        self.scale = base**precision

    # -- scalar API ---------------------------------------------------------

    def encode(self, value: Number) -> EncodedNumber:
        """Encode a number into fixed point."""
        if isinstance(value, bool):  # bools are ints but almost surely a bug
            raise TypeError("refusing to encode bool; pass 0/1 ints explicitly")
        if not isinstance(value, (int, float)):
            raise TypeError(f"cannot encode {type(value).__name__}")
        return EncodedNumber(round(value * self.scale), self.base, self.precision)

    # -- modulus mapping ----------------------------------------------------

    def to_modular(self, encoded: EncodedNumber, public_key: PaillierPublicKey) -> int:
        """Map a signed encoding into ``Z_n`` (negatives wrap to the top half)."""
        value = encoded.encoding
        if abs(value) > public_key.max_int:
            raise OverflowError(
                f"encoded value {value} exceeds the plaintext capacity of a "
                f"{public_key.key_size}-bit key"
            )
        return value % public_key.n
