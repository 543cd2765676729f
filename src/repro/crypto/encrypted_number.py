"""A single encrypted number supporting additive homomorphic arithmetic.

:class:`EncryptedNumber` wraps a raw Paillier ciphertext together with the
public key and the fixed-point scale of its plaintext.  It supports:

* ``enc + enc`` — ciphertext-ciphertext addition,
* ``enc + plain`` — ciphertext-plaintext addition,
* ``enc * scalar`` — multiplication by a plaintext integer scalar,
* re-randomisation (:meth:`obfuscate`) so that repeated transmissions of the
  same value are unlinkable.

These are exactly the operations Dubhe's server needs: it sums the encrypted
registries / label distributions of the participating clients without ever
decrypting them.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .encoding import DEFAULT_BASE, DEFAULT_PRECISION, FixedPointEncoder
from .paillier import PaillierPrivateKey, PaillierPublicKey

__all__ = ["EncryptedNumber", "encrypt_number", "decrypt_number"]

Number = Union[int, float]


class EncryptedNumber:
    """A Paillier ciphertext of a fixed-point encoded number."""

    __slots__ = ("public_key", "ciphertext", "base", "precision")

    def __init__(self, public_key: PaillierPublicKey, ciphertext: int,
                 base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION):
        self.public_key = public_key
        self.ciphertext = ciphertext
        self.base = base
        self.precision = precision

    # -- construction / destruction -----------------------------------------

    @classmethod
    def encrypt(cls, public_key: PaillierPublicKey, value: Number,
                encoder: Optional[FixedPointEncoder] = None,
                rng: Optional[random.Random] = None) -> "EncryptedNumber":
        """Encrypt a float/int under *public_key*."""
        encoder = encoder or FixedPointEncoder()
        encoded = encoder.encode(value)
        modular = encoder.to_modular(encoded, public_key)
        raw = public_key.raw_encrypt(modular, rng=rng)
        return cls(public_key, raw, encoder.base, encoder.precision)

    def decrypt(self, private_key: PaillierPrivateKey) -> float:
        """Decrypt back to a float with this ciphertext's fixed-point scale."""
        if private_key.public_key != self.public_key:
            raise ValueError("private key does not match this ciphertext's public key")
        encoder = FixedPointEncoder(self.base, self.precision)
        residue = private_key.raw_decrypt(self.ciphertext)
        return encoder.decode_modular(residue, self.public_key)

    # -- homomorphic arithmetic ---------------------------------------------

    def _check_compatible(self, other: "EncryptedNumber") -> None:
        if self.public_key != other.public_key:
            raise ValueError("cannot combine ciphertexts under different keys")
        if self.base != other.base or self.precision != other.precision:
            raise ValueError("cannot combine ciphertexts with different scales")

    def __add__(self, other: Union["EncryptedNumber", Number]) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            self._check_compatible(other)
            raw = self.public_key.raw_add(self.ciphertext, other.ciphertext)
            return EncryptedNumber(self.public_key, raw, self.base, self.precision)
        if isinstance(other, (int, float)):
            encoder = FixedPointEncoder(self.base, self.precision)
            encoded = encoder.encode(other)
            modular = encoder.to_modular(encoded, self.public_key)
            raw = self.public_key.raw_add_plain(self.ciphertext, modular)
            return EncryptedNumber(self.public_key, raw, self.base, self.precision)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar: int) -> "EncryptedNumber":
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            raise TypeError("EncryptedNumber only supports multiplication by int scalars")
        raw = self.public_key.raw_mul(self.ciphertext, scalar)
        return EncryptedNumber(self.public_key, raw, self.base, self.precision)

    __rmul__ = __mul__

    # -- utilities -----------------------------------------------------------

    def obfuscate(self, rng: Optional[random.Random] = None) -> "EncryptedNumber":
        """Re-randomise the ciphertext (multiply by an encryption of zero)."""
        raw = self.public_key.raw_obfuscate(self.ciphertext, rng=rng)
        return EncryptedNumber(self.public_key, raw, self.base, self.precision)

    def nbytes(self) -> int:
        """Wire size of this ciphertext in bytes."""
        return self.public_key.ciphertext_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EncryptedNumber(key_bits={self.public_key.key_size}, "
            f"precision={self.precision})"
        )


def encrypt_number(public_key: PaillierPublicKey, value: Number,
                   rng: Optional[random.Random] = None) -> EncryptedNumber:
    """Functional shorthand for :meth:`EncryptedNumber.encrypt`."""
    return EncryptedNumber.encrypt(public_key, value, rng=rng)


def decrypt_number(private_key: PaillierPrivateKey, value: EncryptedNumber) -> float:
    """Functional shorthand for :meth:`EncryptedNumber.decrypt`."""
    return value.decrypt(private_key)
