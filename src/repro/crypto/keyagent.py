"""The key agent role in Dubhe's secure registration protocol.

In each registration round (§5.1) a randomly chosen client acts as the
*agent*: it generates a fresh Paillier keypair ``(pk_t, sk_t)``, dispatches
it to all clients, and later performs decryption duties (scoring tentative
selections, revealing the aggregated registry to clients).  The server never
receives the private key, so it only ever handles ciphertexts.

:class:`KeyAgent` models that role.  It also counts how many key dispatches
and decryptions it performed, feeding the communication-overhead study.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .paillier import DEFAULT_KEY_SIZE, PaillierKeypair, generate_keypair
from .vector import EncryptedVector

__all__ = ["KeyAgent", "AgentStats"]


@dataclass
class AgentStats:
    """Bookkeeping of the agent's work, used by the overhead benchmarks."""

    keypairs_generated: int = 0
    key_dispatches: int = 0
    decryptions: int = 0
    decrypt_seconds: float = 0.0

    def reset(self) -> None:
        self.keypairs_generated = 0
        self.key_dispatches = 0
        self.decryptions = 0
        self.decrypt_seconds = 0.0


@dataclass
class KeyAgent:
    """A client temporarily playing the agent role.

    Parameters
    ----------
    key_size:
        Paillier modulus size in bits.
    rng:
        Optional seeded random source for reproducible keys.
    """

    key_size: int = DEFAULT_KEY_SIZE
    rng: Optional[random.Random] = None
    stats: AgentStats = field(default_factory=AgentStats)
    _keypair: Optional[PaillierKeypair] = field(default=None, repr=False)

    # -- key management -------------------------------------------------------

    def new_round(self) -> PaillierKeypair:
        """Generate a fresh keypair for a new registration round."""
        self._keypair = generate_keypair(self.key_size, rng=self.rng)
        self.stats.keypairs_generated += 1
        return self._keypair

    @property
    def keypair(self) -> PaillierKeypair:
        """The current round's keypair (generated lazily)."""
        if self._keypair is None:
            self.new_round()
        assert self._keypair is not None
        return self._keypair

    def dispatch_public_key(self, n_clients: int):
        """Dispatch the public key to *n_clients* clients.

        Returns the public key; the dispatch count feeds the communication
        overhead accounting.
        """
        if n_clients < 0:
            raise ValueError("n_clients must be non-negative")
        self.stats.key_dispatches += n_clients
        return self.keypair.public_key

    def dispatch_private_key(self, n_clients: int):
        """Dispatch the private key to clients (clients may decrypt, server may not)."""
        if n_clients < 0:
            raise ValueError("n_clients must be non-negative")
        self.stats.key_dispatches += n_clients
        return self.keypair.private_key

    # -- decryption services ---------------------------------------------------

    def decrypt_vector(self, vector: EncryptedVector) -> np.ndarray:
        """Decrypt an aggregated vector on behalf of the federation."""
        start = time.perf_counter()
        result = vector.decrypt(self.keypair.private_key)
        self.stats.decrypt_seconds += time.perf_counter() - start
        self.stats.decryptions += 1
        return result
