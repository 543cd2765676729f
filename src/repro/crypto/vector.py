"""Encrypted vectors: the wire format of Dubhe registries and distributions.

Dubhe exchanges two kinds of vectors under encryption:

* the **registry** ``R^(t,k)`` — a one-hot 0/1 vector of length
  ``l = Σ_{i∈G} C(C, i)`` (§5.1), and
* the **label distribution** ``p_l`` — a length-``C`` float vector used in
  the multi-time selection protocol (§5.3).

:class:`EncryptedVector` encrypts each component individually with Paillier
and supports element-wise homomorphic addition, which is the only operation
the server performs.  The class also reports plaintext and ciphertext wire
sizes, which drive the §6.4 overhead reproduction.
"""

from __future__ import annotations

import pickle
import random
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .encoding import DEFAULT_BASE, DEFAULT_PRECISION, FixedPointEncoder
from .paillier import NoisePool, PaillierPrivateKey, PaillierPublicKey

__all__ = ["EncryptedVector", "plaintext_vector_bytes"]


@lru_cache(maxsize=None)
def _encoder_for(base: int, precision: int) -> FixedPointEncoder:
    """Shared encoder instances — one per (base, precision), not per call."""
    return FixedPointEncoder(base, precision)


@lru_cache(maxsize=4096)
def _plaintext_bytes_for_length(length: int) -> int:
    """Pickled size of a length-*length* list of floats.

    pickle encodes every float as a fixed 9-byte BINFLOAT (and does not
    memoize float objects), so the payload size depends only on the length —
    memoizing per length avoids re-pickling the vector on every stats call.
    """
    return len(pickle.dumps([0.0] * length))


def plaintext_vector_bytes(values: Sequence[float] | np.ndarray) -> int:
    """Size in bytes of the pickled plaintext vector (as a Python list).

    The paper reports plaintext registry sizes of 0.47–0.49 KB for lengths
    56/53 "in Python3", which corresponds to pickling the list of Python
    numbers; we use the same convention so the overhead comparison is
    apples-to-apples.
    """
    return _plaintext_bytes_for_length(len(values))


class EncryptedVector:
    """A vector whose components are individually Paillier-encrypted."""

    def __init__(self, public_key: PaillierPublicKey, ciphertexts: list[int],
                 base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION):
        self.public_key = public_key
        self.ciphertexts = list(ciphertexts)
        self.base = base
        self.precision = precision

    # -- construction --------------------------------------------------------

    @staticmethod
    def encoder_for(base: int = DEFAULT_BASE,
                    precision: int = DEFAULT_PRECISION) -> FixedPointEncoder:
        """A shared, cached encoder for the given fixed-point scale."""
        return _encoder_for(base, precision)

    @classmethod
    def encrypt(cls, public_key: PaillierPublicKey,
                values: Iterable[float] | np.ndarray,
                encoder: Optional[FixedPointEncoder] = None,
                rng: Optional[random.Random] = None,
                noise: Optional[Union[NoisePool, Sequence[int]]] = None,
                ) -> "EncryptedVector":
        """Encrypt every component of *values* under *public_key*.

        When *noise* is given (a :class:`NoisePool` or a pre-drawn sequence
        of ``r^n mod n²`` terms), each component consumes one precomputed
        term instead of running a modular exponentiation.
        """
        encoder = encoder or _encoder_for(DEFAULT_BASE, DEFAULT_PRECISION)
        flat = np.asarray(list(values), dtype=float).ravel()
        if noise is None:
            rn_values = None
        elif isinstance(noise, NoisePool):
            rn_values = noise.take_many(len(flat))
        else:
            rn_values = list(noise)
            if len(rn_values) < len(flat):
                raise ValueError(f"need {len(flat)} noise terms, got {len(rn_values)}")
        # registries are mostly-zero 0/1 vectors: cache the encoded modular
        # value per distinct component so encode/to_modular run once per value
        modular_of: dict[float, int] = {}
        ciphertexts = []
        for i, v in enumerate(flat):
            v = float(v)
            modular = modular_of.get(v)
            if modular is None:
                modular = encoder.to_modular(encoder.encode(v), public_key)
                modular_of[v] = modular
            rn = rn_values[i] if rn_values is not None else None
            ciphertexts.append(public_key.raw_encrypt(modular, rng=rng, rn_value=rn))
        return cls(public_key, ciphertexts, encoder.base, encoder.precision)

    def decrypt(self, private_key: PaillierPrivateKey) -> np.ndarray:
        """Decrypt back to a float ndarray."""
        if private_key.public_key != self.public_key:
            raise ValueError("private key does not match this vector's public key")
        # hoist the modular constants out of the per-component loop
        n = self.public_key.n
        half_n = n // 2
        scale = _encoder_for(self.base, self.precision).scale
        out = np.empty(len(self.ciphertexts), dtype=float)
        for i, c in enumerate(self.ciphertexts):
            value = private_key.raw_decrypt(c)
            if value > half_n:
                value -= n
            out[i] = value / scale
        return out

    # -- homomorphic algebra --------------------------------------------------

    def check_compatible(self, other: "EncryptedVector") -> None:
        """Raise unless *other* can be added to this vector."""
        if not isinstance(other, EncryptedVector):
            raise TypeError("can only combine with another EncryptedVector")
        if self.public_key != other.public_key:
            raise ValueError("cannot combine vectors encrypted under different keys")
        if len(self.ciphertexts) != len(other.ciphertexts):
            raise ValueError(
                f"length mismatch: {len(self.ciphertexts)} vs {len(other.ciphertexts)}"
            )
        if self.base != other.base or self.precision != other.precision:
            raise ValueError("cannot combine vectors with different fixed-point scales")

    def copy(self) -> "EncryptedVector":
        """A ciphertext-level copy (safe to accumulate into in place)."""
        return EncryptedVector(self.public_key, self.ciphertexts, self.base,
                               self.precision)

    def add_(self, other: "EncryptedVector") -> "EncryptedVector":
        """In-place homomorphic addition (streaming aggregation)."""
        self.check_compatible(other)
        nsquare = self.public_key.nsquare
        own = self.ciphertexts
        theirs = other.ciphertexts
        for i in range(len(own)):
            own[i] = own[i] * theirs[i] % nsquare
        return self

    # -- sizes -----------------------------------------------------------------

    def nbytes(self) -> int:
        """Total ciphertext wire size in bytes (components only)."""
        return len(self.ciphertexts) * self.public_key.ciphertext_bytes()
