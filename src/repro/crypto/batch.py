"""Batch encryption of many vectors.

:class:`BatchCryptoExecutor` is the secure protocol's one call site for bulk
crypto: every registry of a registration round is encrypted through
:meth:`~BatchCryptoExecutor.encrypt_many`.  Work items are pure functions of
(public key, values, packing parameters) and run one after another —
CPython's big-int ``pow`` holds the GIL, and with a prewarmed
:class:`~repro.crypto.paillier.NoisePool` the online work is mostly
GIL-bound Python, so a worker pool buys nothing here.  A shared *noise* pool
and a seeded *rng* (reproducible ciphertexts) are both honoured.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

import numpy as np

from .encoding import DEFAULT_BASE, DEFAULT_PRECISION
from .packing import DEFAULT_MAX_WEIGHT, PackedEncryptedVector
from .paillier import NoisePool, PaillierPublicKey
from .vector import EncryptedVector

__all__ = ["BatchCryptoExecutor", "encrypt_one"]

AnyEncryptedVector = Union[EncryptedVector, PackedEncryptedVector]


def encrypt_one(public_key: PaillierPublicKey, values: np.ndarray, packed: bool,
                max_weight: int, base: int, precision: int, max_abs_value: float,
                noise: Optional[Union[NoisePool, Sequence[int]]],
                rng: Optional[random.Random]) -> AnyEncryptedVector:
    """Encrypt one vector (packed or per-component)."""
    if packed:
        return PackedEncryptedVector.encrypt(
            public_key, values, max_weight=max_weight, base=base,
            precision=precision, max_abs_value=max_abs_value,
            noise=noise, rng=rng,
        )
    encoder = EncryptedVector.encoder_for(base, precision)
    return EncryptedVector.encrypt(public_key, values, encoder=encoder,
                                   rng=rng, noise=noise)


class BatchCryptoExecutor:
    """Run bulk encryption for the secure protocol.

    Example
    -------
    >>> import random
    >>> from repro.crypto.paillier import generate_keypair
    >>> keys = generate_keypair(key_size=64, rng=random.Random(0))
    >>> executor = BatchCryptoExecutor()
    >>> encrypted = executor.encrypt_many(keys.public_key, [[0.5, 0.25]])
    >>> encrypted[0].decrypt(keys.private_key).tolist()
    [0.5, 0.25]
    """

    def encrypt_many(self, public_key: PaillierPublicKey,
                     vectors: Sequence[Sequence[float]] | np.ndarray,
                     packed: bool = False,
                     max_weight: int = DEFAULT_MAX_WEIGHT,
                     base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION,
                     max_abs_value: float = 1.0,
                     noise: Optional[NoisePool] = None,
                     rng: Optional[random.Random] = None) -> list[AnyEncryptedVector]:
        """Encrypt every vector in *vectors*, in order."""
        return [
            encrypt_one(public_key, np.asarray(values, dtype=float).ravel(),
                        packed, max_weight, base, precision, max_abs_value,
                        noise, rng)
            for values in vectors
        ]
