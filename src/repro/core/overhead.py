"""Encryption and communication overhead accounting (§6.4 of the paper).

The paper argues Dubhe's overhead is negligible next to model training and
model-weight transfer.  Its evidence is a handful of concrete numbers:

* plaintext registry of length 56/53 ≈ 0.47–0.49 KB; Paillier-2048 ciphertext
  ≈ 29.6–31.3 KB (~60× expansion);
* encryption of one registry ≈ 6.9 s, decryption ≈ 1.9 s (pure-Python
  Paillier at 2048 bits);
* communication: ``K`` check-ins per round as in any FL system, plus ``N``
  registry transfers whenever re-registration happens and ``≈ H·K`` messages
  per round when multi-time client determination is enabled.

The helpers here regenerate all three kinds of numbers from the actual
implementation so the §6.4 benchmark is a measurement, not a transcription.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from ..crypto.packing import PackedEncryptedVector, PackingScheme
from ..crypto.paillier import NoisePool, generate_keypair
from ..crypto.vector import EncryptedVector, plaintext_vector_bytes

__all__ = [
    "EncryptionOverheadReport",
    "CommunicationOverheadReport",
    "measure_encryption_overhead",
    "communication_overhead",
]


@dataclass(frozen=True)
class EncryptionOverheadReport:
    """Measured cost of encrypting/decrypting one vector of a given length.

    The ``packed_*`` fields are populated when the packed
    (BatchCrypt-style) code path was also measured; they describe the same
    logical vector shipped as ``⌈l/slots⌉`` packed ciphertexts.
    """

    vector_length: int
    key_size: int
    plaintext_bytes: int
    ciphertext_bytes: int
    encrypt_seconds: float
    decrypt_seconds: float
    packed_clients: Optional[int] = None
    packed_ciphertexts: Optional[int] = None
    packed_ciphertext_bytes: Optional[int] = None
    packed_encrypt_seconds: Optional[float] = None
    packed_decrypt_seconds: Optional[float] = None

    @property
    def plaintext_kb(self) -> float:
        return self.plaintext_bytes / 1024.0

    @property
    def ciphertext_kb(self) -> float:
        return self.ciphertext_bytes / 1024.0

    @property
    def expansion_factor(self) -> float:
        return self.ciphertext_bytes / max(self.plaintext_bytes, 1)

    @property
    def packed_expansion_factor(self) -> Optional[float]:
        """Packed ciphertext size relative to plaintext size."""
        if self.packed_ciphertext_bytes is None:
            return None
        return self.packed_ciphertext_bytes / max(self.plaintext_bytes, 1)

    @property
    def packing_gain(self) -> Optional[float]:
        """Wire-size ratio per-component / packed (higher is better)."""
        if not self.packed_ciphertext_bytes:
            return None
        return self.ciphertext_bytes / self.packed_ciphertext_bytes

    def as_row(self) -> dict:
        """A flat dict suitable for printing as one row of the §6.4 table."""
        row = {
            "vector_length": self.vector_length,
            "key_size": self.key_size,
            "plaintext_kb": round(self.plaintext_kb, 3),
            "ciphertext_kb": round(self.ciphertext_kb, 3),
            "expansion": round(self.expansion_factor, 1),
            "encrypt_s": round(self.encrypt_seconds, 4),
            "decrypt_s": round(self.decrypt_seconds, 4),
        }
        if self.packed_ciphertext_bytes is not None:
            row.update({
                "packed_kb": round(self.packed_ciphertext_bytes / 1024.0, 3),
                "packed_expansion": round(self.packed_expansion_factor, 1),
                "packed_encrypt_s": round(self.packed_encrypt_seconds, 4),
                "packed_decrypt_s": round(self.packed_decrypt_seconds, 4),
            })
        return row


@dataclass(frozen=True)
class CommunicationOverheadReport:
    """Per-round message counts of a Dubhe deployment (§6.4)."""

    baseline_messages: int        # K check-ins, present in any FL system
    registration_messages: int    # N registry transfers when re-registering
    multitime_messages: int       # ≈ H·K during multi-time client determination

    @property
    def dubhe_total(self) -> int:
        return self.baseline_messages + self.registration_messages + self.multitime_messages

    @property
    def overhead_ratio(self) -> float:
        """Dubhe's extra messages relative to the baseline check-ins."""
        if self.baseline_messages == 0:
            return float("inf")
        return (self.registration_messages + self.multitime_messages) / self.baseline_messages


def measure_encryption_overhead(vector_length: int, key_size: int,
                                trials: int = 1,
                                rng_seed: Optional[int] = None,
                                packed_clients: Optional[int] = None,
                                ) -> EncryptionOverheadReport:
    """Measure plaintext/ciphertext sizes and encrypt/decrypt wall time.

    The measured vector mimics a registry: a one-hot vector of the given
    length (values are irrelevant for cost — Paillier cost depends only on
    key size and vector length).

    Both pipelines encrypt the way a Dubhe client does: the noise comes from
    a :class:`NoisePool` built on the private key the agent dispatched, and
    generating it is counted in the encrypt time (all costs counted).

    When *packed_clients* is given, the packed code path is measured too:
    the same vector shipped as ``⌈l/slots⌉`` ciphertexts with per-slot
    headroom for *packed_clients* homomorphic additions.
    """
    if vector_length < 1:
        raise ValueError("vector_length must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    if packed_clients is not None and packed_clients < 1:
        raise ValueError("packed_clients must be positive when given")
    rng = random.Random(rng_seed)
    keypair = generate_keypair(key_size, rng=rng if rng_seed is not None else None)
    values = np.zeros(vector_length)
    values[0] = 1.0
    plaintext_bytes = plaintext_vector_bytes(values)
    noise = NoisePool(keypair.private_key,
                      rng=rng if rng_seed is not None else None)

    encrypt_times = []
    decrypt_times = []
    ciphertext_bytes = 0
    for _ in range(trials):
        start = perf_counter()
        encrypted = EncryptedVector.encrypt(keypair.public_key, values,
                                            noise=noise)
        encrypt_times.append(perf_counter() - start)
        ciphertext_bytes = encrypted.nbytes()
        start = perf_counter()
        encrypted.decrypt(keypair.private_key)
        decrypt_times.append(perf_counter() - start)

    packed_fields: dict = {}
    if packed_clients is not None:
        scheme = PackingScheme(keypair.public_key, vector_length,
                               max_weight=packed_clients)
        packed_encrypt_times = []
        packed_decrypt_times = []
        packed_bytes = 0
        packed_count = 0
        for _ in range(trials):
            start = perf_counter()
            packed = PackedEncryptedVector.encrypt(keypair.public_key, values,
                                                   scheme=scheme, noise=noise)
            packed_encrypt_times.append(perf_counter() - start)
            packed_bytes = packed.nbytes()
            packed_count = len(packed.ciphertexts)
            start = perf_counter()
            packed.decrypt(keypair.private_key)
            packed_decrypt_times.append(perf_counter() - start)
        packed_fields = {
            "packed_clients": packed_clients,
            "packed_ciphertexts": packed_count,
            "packed_ciphertext_bytes": packed_bytes,
            "packed_encrypt_seconds": float(np.mean(packed_encrypt_times)),
            "packed_decrypt_seconds": float(np.mean(packed_decrypt_times)),
        }

    return EncryptionOverheadReport(
        vector_length=vector_length,
        key_size=key_size,
        plaintext_bytes=plaintext_bytes,
        ciphertext_bytes=ciphertext_bytes,
        encrypt_seconds=float(np.mean(encrypt_times)),
        decrypt_seconds=float(np.mean(decrypt_times)),
        **packed_fields,
    )


def communication_overhead(n_clients: int, participants_per_round: int,
                           tentative_selections: int = 1,
                           reregistration: bool = True,
                           multitime_determination: bool = False,
                           ) -> CommunicationOverheadReport:
    """Per-round communication counts of Dubhe versus a vanilla FL round.

    Parameters
    ----------
    n_clients, participants_per_round:
        ``N`` and ``K``.
    tentative_selections:
        ``H``; only adds messages when *multitime_determination* is enabled
        (the paper notes ≈ ``(H − 1)·K`` *additional* active clients, i.e.
        ``H·K`` distribution transfers in total).
    reregistration:
        Whether this round includes a registry refresh (``N`` messages).
    multitime_determination:
        Whether multi-time selection is used for client determination.
    """
    if n_clients < 1 or participants_per_round < 1:
        raise ValueError("n_clients and participants_per_round must be positive")
    if participants_per_round > n_clients:
        raise ValueError("participants_per_round cannot exceed n_clients")
    if tentative_selections < 1:
        raise ValueError("tentative_selections must be positive")
    registration = n_clients if reregistration else 0
    multitime = tentative_selections * participants_per_round if multitime_determination else 0
    return CommunicationOverheadReport(
        baseline_messages=participants_per_round,
        registration_messages=registration,
        multitime_messages=multitime,
    )
