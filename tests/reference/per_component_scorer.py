"""The per-component multi-time scorer, kept as the equivalence reference.

What ``SecureDubheSelector`` ran before it went packed: every selected client
encrypts its ``p_l`` as one Paillier ciphertext *per class*
(:class:`~repro.crypto.vector.EncryptedVector`), the server sums them, the
agent decrypts the aggregate.  The production scorer
(:class:`~repro.core.secure.SecureDistributionAggregation`) must decrypt to
exactly these floats — references live in ``tests/``, not ``src/``.
"""

import numpy as np

from repro.core.secure import SecureAggregationServer
from repro.crypto.vector import EncryptedVector

__all__ = ["PerComponentScorer"]


class PerComponentScorer:
    """Encrypt ``p_l`` component by component, fold, decrypt, normalise."""

    def __init__(self, config, agent):
        self.num_classes = config.num_classes
        self.keypair = agent.new_round()
        #: ciphertexts each upload carried (always C: one per class)
        self.ciphertexts_per_upload = []

    def aggregate(self, client_distributions, selected):
        """The decrypted (un-normalised) sum of the cohort's ``p_l``."""
        distributions = np.asarray(client_distributions, dtype=float)
        server = SecureAggregationServer(self.keypair.public_key)
        for k in selected:
            upload = EncryptedVector.encrypt(self.keypair.public_key,
                                             distributions[int(k)])
            self.ciphertexts_per_upload.append(len(upload.ciphertexts))
            server.receive(upload)
        return server.aggregate().decrypt(self.keypair.private_key)

    def population(self, client_distributions, selected):
        decrypted = self.aggregate(client_distributions, selected)
        total = decrypted.sum()
        return decrypted / total if total > 0 else np.zeros_like(decrypted)

    def populations(self, client_distributions, candidates):
        """One ``population`` row per candidate: a multi-time batch scorer."""
        return np.stack([self.population(client_distributions, c)
                         for c in candidates])
