"""SecureDubheSelector — Dubhe selection driven end-to-end by the HE protocol.

:class:`~repro.core.selectors.DubheSelector` implements the selection
*algorithm* against plaintext label distributions (which is what the
large-scale experiments use — the algebra is identical and Paillier at
benchmark scale would dominate the runtime).  This class runs the same
algorithm through the actual encrypted data path, exactly as deployed:

* the registration round goes through :class:`SecureRegistrationRound`
  (agent keygen → client-side encryption → server ciphertext aggregation →
  client-side decryption of the overall registry);
* each multi-time tentative selection is scored by the agent via
  :class:`SecureDistributionAggregation` (selected clients encrypt ``p_l``,
  the server sums ciphertexts, the agent decrypts the aggregate only);
* the server side of the selector never touches a plaintext distribution or
  a private key.

It produces byte-for-byte the same selections as the plaintext selector for
the same RNG seed (verified in the test-suite), plus a full
:class:`ProtocolStats` accounting of the encryption/communication cost it
incurred — so it doubles as a live §6.4 measurement on real selections.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..crypto.keyagent import KeyAgent
from .config import DubheConfig
from .multitime import MultiTimeResult, multi_time_selection
from .probability import bernoulli_participation, participation_probabilities
from .registry import RegistryCodebook
from .secure import ProtocolStats, SecureDistributionAggregation, SecureRegistrationRound
from .selectors import ClientSelector

__all__ = ["SecureDubheSelector"]


class SecureDubheSelector(ClientSelector):
    """Dubhe selection where every exchanged vector travels encrypted."""

    name = "dubhe-secure"

    def __init__(self, client_distributions: np.ndarray, config: DubheConfig,
                 seed: Optional[int] = None, agent: Optional[KeyAgent] = None,
                 score_securely: bool = True):
        super().__init__(client_distributions, config.participants_per_round, seed=seed)
        if config.num_classes != self.num_classes:
            raise ValueError("config num_classes does not match client distributions")
        if not config.has_all_thresholds():
            raise ValueError(
                "DubheConfig is missing thresholds; run repro.core.parameter_search first"
            )
        self.config = config
        self.codebook = RegistryCodebook(config)
        self.agent = agent or KeyAgent(key_size=config.key_size)
        self.score_securely = score_securely
        self.stats = ProtocolStats()
        self.last_result: Optional[MultiTimeResult] = None
        self._registration_round = SecureRegistrationRound(config, agent=self.agent)
        self._scorer: Optional[SecureDistributionAggregation] = None
        self.register()

    # -- the encrypted registration round ---------------------------------------

    def register(self) -> None:
        """Run a full encrypted registration round for every client."""
        overall, registrations, stats = self._registration_round.run(self.client_distributions)
        # fixed-point decryption returns floats; counts are integral by construction
        self.overall_registry = np.round(overall)
        self.registrations = registrations
        self.probabilities = participation_probabilities(
            self.codebook, registrations, self.overall_registry,
            self.config.participants_per_round,
        )
        self.stats = self.stats.merged_with(stats)
        if self.score_securely:
            # rotate to a fresh key for the multi-time scoring traffic; the
            # agent's current keypair now matches the scorer's
            self._scorer = SecureDistributionAggregation(self.config, agent=self.agent)

    # -- selection ----------------------------------------------------------------

    def _tentative_draw(self, _h: int) -> list[int]:
        volunteers = bernoulli_participation(self.probabilities, rng=self.rng)
        pool = [int(v) for v in volunteers]
        k = self.participants_per_round
        if len(pool) > k:
            keep = self.rng.choice(len(pool), size=k, replace=False)
            pool = [pool[i] for i in keep]
        elif len(pool) < k:
            outside = np.setdiff1d(np.arange(self.n_clients), np.asarray(pool, dtype=int))
            extra = self.rng.choice(outside, size=k - len(pool), replace=False)
            pool.extend(int(e) for e in extra)
        return pool

    def _secure_population(self, selected: Sequence[int]) -> np.ndarray:
        """Population distribution recovered from the encrypted aggregate."""
        assert self._scorer is not None
        # the agent's score is ||p_o − p_u||₁; for the multi-time argmin we
        # need p_o itself, so reuse the same encrypted path at vector level
        from .secure import SecureAggregationServer, SecureClient

        server = SecureAggregationServer(self._scorer.keypair.public_key)
        # the selected clients hold sk_t: they draw from the scorer's pool
        clients = [SecureClient(int(k), self.client_distributions[int(k)],
                                noise=self._scorer.noise) for k in selected]
        for client in clients:
            server.receive(client.encrypted_distribution(self._scorer.keypair.public_key))
        aggregate = server.aggregate()
        decrypted = self.agent.decrypt_vector(aggregate)
        round_stats = ProtocolStats()
        for client in clients:
            round_stats = round_stats.merged_with(client.stats)
        self.stats = self.stats.merged_with(round_stats.merged_with(server.stats))
        total = decrypted.sum()
        if total <= 0:
            return self.uniform.copy()
        return decrypted / total

    def select(self, round_index: int) -> list[int]:
        population_of = (self._secure_population if self.score_securely
                         else self.population_of)
        result = multi_time_selection(
            draw=self._tentative_draw,
            population_of=population_of,
            uniform=self.uniform,
            tries=self.config.tentative_selections,
        )
        self.last_result = result
        return list(result.best.candidate)

    @property
    def last_bias(self) -> float:
        """``EMD*`` of the most recent selection (scored on decrypted aggregates)."""
        if self.last_result is None:
            raise RuntimeError("no selection has been performed yet")
        return self.last_result.best_score
