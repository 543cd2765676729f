"""The key agent role in Dubhe's secure registration protocol.

In each registration round (§5.1) a randomly chosen client acts as the
*agent*: it generates a fresh Paillier keypair ``(pk_t, sk_t)``, dispatches
it to all clients, and later performs decryption duties (scoring tentative
selections, revealing the aggregated registry to clients).  The server never
receives the private key, so it only ever handles ciphertexts.

:class:`KeyAgent` models that role.  What its work costs is booked by the
protocol round that asks for it, in that round's
:class:`~repro.core.secure.ProtocolStats`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .paillier import DEFAULT_KEY_SIZE, PaillierKeypair, generate_keypair
from .vector import EncryptedVector

__all__ = ["KeyAgent"]


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
    _keypair: Optional[PaillierKeypair] = field(default=None, repr=False)

    # -- key management -------------------------------------------------------

    def new_round(self) -> PaillierKeypair:
        """Generate a fresh keypair for a new registration round."""
        self._keypair = generate_keypair(self.key_size, rng=self.rng)
        return self._keypair

    @property
    def keypair(self) -> PaillierKeypair:
        """The current round's keypair (generated lazily)."""
        if self._keypair is None:
            self.new_round()
        assert self._keypair is not None
        return self._keypair

    # -- decryption services ---------------------------------------------------

    def decrypt_vector(self, vector: EncryptedVector) -> np.ndarray:
        """Decrypt an aggregated vector on behalf of the federation."""
        return vector.decrypt(self.keypair.private_key)
