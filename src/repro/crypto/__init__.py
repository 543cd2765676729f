"""Additively homomorphic encryption substrate (Paillier) for Dubhe.

Public API
----------
* :func:`generate_keypair`, :class:`PaillierPublicKey`,
  :class:`PaillierPrivateKey` — the cryptosystem.
* :class:`FixedPointEncoder`, :class:`EncodedNumber` — float <-> integer
  fixed-point encoding.
* :class:`EncryptedNumber` — a single additively homomorphic ciphertext.
* :class:`EncryptedVector` — element-wise encrypted vectors (registries and
  label distributions).
* :class:`PackedEncryptedVector`, :class:`PackingScheme` — BatchCrypt-style
  ciphertext packing (many slots per ciphertext).
* :class:`NoisePool` — precomputed encryption noise ``r^n mod n²``.
* :class:`BatchCryptoExecutor` — bulk encryption of a round's registries.
* :class:`KeyAgent` — the per-round key-generation / decryption agent role.
"""

from .batch import BatchCryptoExecutor
from .encoding import DEFAULT_BASE, DEFAULT_PRECISION, EncodedNumber, FixedPointEncoder
from .encrypted_number import EncryptedNumber, decrypt_number, encrypt_number
from .keyagent import KeyAgent
from .packing import DEFAULT_MAX_WEIGHT, PackedEncryptedVector, PackingScheme
from .paillier import (
    DEFAULT_KEY_SIZE,
    PAPER_KEY_SIZE,
    NoisePool,
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from .primes import generate_distinct_primes, generate_prime, is_probable_prime
from .vector import EncryptedVector, plaintext_vector_bytes

__all__ = [
    "DEFAULT_BASE",
    "DEFAULT_PRECISION",
    "DEFAULT_KEY_SIZE",
    "DEFAULT_MAX_WEIGHT",
    "PAPER_KEY_SIZE",
    "BatchCryptoExecutor",
    "EncodedNumber",
    "EncryptedNumber",
    "EncryptedVector",
    "FixedPointEncoder",
    "KeyAgent",
    "NoisePool",
    "PackedEncryptedVector",
    "PackingScheme",
    "PaillierKeypair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "decrypt_number",
    "encrypt_number",
    "generate_distinct_primes",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "plaintext_vector_bytes",
]
