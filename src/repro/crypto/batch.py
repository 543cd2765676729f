"""Parallel batch encryption/decryption of many vectors.

Mirrors :mod:`repro.federated.executor`: the same three back-ends
(``sequential`` / ``thread`` / ``process``) applied to the crypto hot path,
so all N clients of a secure registration round encrypt concurrently instead
of one after another.  Work items are pure functions of (public key, values,
packing parameters), so every mode produces vectors that decrypt to
identical plaintexts.

Note on parallelism: CPython's big-int ``pow`` holds the GIL, so only
``process`` mode achieves true CPU parallelism for the modular
exponentiations.  ``thread`` mode exists for API parity (and for bignum
back-ends that release the GIL); with a prewarmed
:class:`~repro.crypto.paillier.NoisePool` the online work is mostly
GIL-bound Python either way, and ``sequential`` is the honest default.

Noise interplay
---------------
* ``sequential`` and ``thread`` modes consume a shared (thread-safe)
  :class:`~repro.crypto.paillier.NoisePool` directly.
* ``process`` mode cannot share a pool across interpreters.  Terms the pool
  has already *precomputed* are shipped with each work item; for the rest
  the workers receive an empty copy of the pool (its picklable key half and
  settings) and run the exponentiations themselves — the parent never
  generates a term on the workers' behalf.  Workers are client-side
  encryptors, so shipping them ``sk_t`` stays inside the trust boundary.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Optional, Sequence, Union

import numpy as np

from .encoding import DEFAULT_BASE, DEFAULT_PRECISION
from .packing import DEFAULT_MAX_WEIGHT, PackedEncryptedVector, PackingScheme
from .paillier import NoisePool, PaillierPrivateKey, PaillierPublicKey
from .vector import EncryptedVector

__all__ = ["BatchCryptoExecutor", "encrypt_many", "decrypt_many", "encrypt_one"]

AnyEncryptedVector = Union[EncryptedVector, PackedEncryptedVector]


def encrypt_one(public_key: PaillierPublicKey, values: np.ndarray, packed: bool,
                max_weight: int, base: int, precision: int, max_abs_value: float,
                noise: Optional[Union[NoisePool, Sequence[int]]],
                rng: Optional[random.Random]) -> AnyEncryptedVector:
    """Worker body: encrypt one vector (packed or per-component)."""
    if packed:
        return PackedEncryptedVector.encrypt(
            public_key, values, max_weight=max_weight, base=base,
            precision=precision, max_abs_value=max_abs_value,
            noise=noise, rng=rng,
        )
    encoder = EncryptedVector.encoder_for(base, precision)
    return EncryptedVector.encrypt(public_key, values, encoder=encoder,
                                   rng=rng, noise=noise)


def _decrypt_one(private_key: PaillierPrivateKey,
                 vector: AnyEncryptedVector) -> np.ndarray:
    """Worker body: decrypt one vector back to floats."""
    return vector.decrypt(private_key)


class BatchCryptoExecutor:
    """Run bulk encrypt/decrypt with the chosen back-end.

    Parameters mirror :class:`~repro.federated.executor.LocalUpdateExecutor`.
    """

    def __init__(self, mode: str = "sequential", max_workers: Optional[int] = None):
        if mode not in ("sequential", "thread", "process"):
            raise ValueError("mode must be 'sequential', 'thread' or 'process'")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive when given")
        self.mode = mode
        self.max_workers = max_workers

    # -- internals -----------------------------------------------------------

    def _map(self, fn, work_items: list[tuple]) -> list:
        if self.mode == "sequential":
            return [fn(*item) for item in work_items]
        pool_cls = ThreadPoolExecutor if self.mode == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=self.max_workers) as pool:
            futures = [pool.submit(fn, *item) for item in work_items]
            return [f.result() for f in futures]

    def _noise_per_item(self, public_key: PaillierPublicKey,
                       vectors: Sequence[np.ndarray], packed: bool,
                       max_weight: int, base: int, precision: int,
                       max_abs_value: float,
                       noise: Optional[NoisePool]) -> list:
        """Resolve the per-work-item noise argument for the current mode."""
        if noise is None:
            return [None] * len(vectors)
        if self.mode != "process":
            return [noise] * len(vectors)  # NoisePool is thread-safe
        # process mode: ship precomputed r^n terms as plain ints; where the
        # pool holds none the worker gets an empty copy and generates its own
        per_item = []
        for values in vectors:
            count = len(values)
            if packed:
                count = PackingScheme(public_key, count, max_weight=max_weight,
                                      base=base, precision=precision,
                                      max_abs_value=max_abs_value).num_ciphertexts
            per_item.append(noise.take_precomputed(count) or noise)
        return per_item

    # -- public API ----------------------------------------------------------

    def encrypt_many(self, public_key: PaillierPublicKey,
                     vectors: Sequence[Sequence[float]] | np.ndarray,
                     packed: bool = False,
                     max_weight: int = DEFAULT_MAX_WEIGHT,
                     base: int = DEFAULT_BASE, precision: int = DEFAULT_PRECISION,
                     max_abs_value: float = 1.0,
                     noise: Optional[NoisePool] = None,
                     rng: Optional[random.Random] = None) -> list[AnyEncryptedVector]:
        """Encrypt every vector in *vectors*, concurrently where possible.

        A seeded *rng* (reproducible ciphertexts) is honoured only in
        ``sequential`` mode; ``thread``/``process`` modes interleave workers,
        so they fall back to secure per-worker randomness — plaintexts are
        unaffected, ciphertext bits are not reproducible.
        """
        arrays = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if not arrays:
            return []
        # a shared seeded rng is only meaningful without worker interleaving
        worker_rng = rng if self.mode == "sequential" else None
        noise_args = self._noise_per_item(public_key, arrays, packed, max_weight,
                                          base, precision, max_abs_value, noise)
        work = [
            (public_key, values, packed, max_weight, base, precision,
             max_abs_value, noise_arg, worker_rng)
            for values, noise_arg in zip(arrays, noise_args)
        ]
        return self._map(encrypt_one, work)

    def decrypt_many(self, private_key: PaillierPrivateKey,
                     vectors: Sequence[AnyEncryptedVector]) -> list[np.ndarray]:
        """Decrypt every vector in *vectors*, concurrently where possible."""
        return self._map(_decrypt_one, [(private_key, v) for v in vectors])


def encrypt_many(public_key: PaillierPublicKey,
                 vectors: Sequence[Sequence[float]] | np.ndarray,
                 mode: str = "sequential", max_workers: Optional[int] = None,
                 **kwargs) -> list[AnyEncryptedVector]:
    """Convenience wrapper: ``BatchCryptoExecutor(mode).encrypt_many(...)``."""
    return BatchCryptoExecutor(mode, max_workers).encrypt_many(public_key, vectors,
                                                               **kwargs)


def decrypt_many(private_key: PaillierPrivateKey,
                 vectors: Sequence[AnyEncryptedVector],
                 mode: str = "sequential",
                 max_workers: Optional[int] = None) -> list[np.ndarray]:
    """Convenience wrapper: ``BatchCryptoExecutor(mode).decrypt_many(...)``."""
    return BatchCryptoExecutor(mode, max_workers).decrypt_many(private_key, vectors)
