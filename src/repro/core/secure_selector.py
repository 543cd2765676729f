"""SecureDubheSelector — Dubhe selection driven end-to-end by the HE protocol.

:class:`~repro.core.selectors.DubheSelector` implements the selection
*algorithm* against plaintext label distributions (which is what the
large-scale experiments use — the algebra is identical and Paillier at
benchmark scale would dominate the runtime).  This subclass runs the same
algorithm — its validation, tentative draw and re-registration are the
parent's — through the actual encrypted data path, exactly as deployed, and
every vector it moves travels *packed*:

* registration streams through :meth:`SecureRegistrationRound.run_stream`
  (agent keygen → chunked client-side encryption → server tree fold →
  client-side decryption of the overall registry) under integer count
  packing: a 56-slot registry is 3 ciphertexts at a 256-bit key, 1 at 2048;
* each multi-time tentative try is scored through
  :meth:`SecureDistributionAggregation.population`: the K selected clients
  each upload ``p_l`` as ``⌈C/slots⌉`` ciphertexts (2 at 256 bits, 1 from
  512 up) with packing headroom ``max_weight = K``, the server sums them and
  the agent decrypts the aggregate only.  A client *encrypts* that upload
  once per key epoch and re-sends it on every later try that draws it: the
  scorer — one round key, one :class:`SecureClient` per client id — lives
  from one registration round to the next (the constructor's, then each
  :meth:`~repro.core.selectors.DubheSelector.refresh_registrations`), where
  every client starts over under a new key (a deviation from Fig. 4's
  per-try encryption, see ``docs/paper_mapping.md``);
* the server side of the selector never touches a plaintext distribution or
  a private key.

Packed and per-component ciphertexts decrypt bit-identically, so it picks the
same cohorts as the plaintext selector for the same RNG seed with the same
``last_bias`` floats as a per-component scorer (both verified in the
test-suite), plus a full :class:`ProtocolStats` accounting of what it moved
— so it doubles as a live §6.4 measurement on real selections.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..crypto.keyagent import KeyAgent
from .config import DubheConfig
from .multitime import multi_time_selection
from .probability import participation_probabilities
from .secure import ProtocolStats, SecureDistributionAggregation, SecureRegistrationRound
from .selectors import DubheSelector

__all__ = ["SecureDubheSelector"]


class SecureDubheSelector(DubheSelector):
    """Dubhe selection where every exchanged vector travels encrypted."""

    name = "dubhe-secure"

    def __init__(self, client_distributions: np.ndarray, config: DubheConfig,
                 seed: Optional[int] = None, agent: Optional[KeyAgent] = None,
                 score_securely: bool = True):
        self.agent = agent or KeyAgent(key_size=config.key_size)
        self.score_securely = score_securely
        self._registration_round = SecureRegistrationRound(
            config, agent=self.agent, packed=True, aggregation="tree")
        self._scorer: Optional[SecureDistributionAggregation] = None
        self._settled_stats = ProtocolStats()
        super().__init__(client_distributions, config, seed=seed)

    def _register_all(self) -> None:
        """Run a full encrypted registration round and open a new key epoch."""
        streamed = self._registration_round.run_stream(self.client_distributions)
        self.registration_batch = streamed.registration
        self.overall_registry = streamed.overall
        self.probabilities = participation_probabilities(
            self.codebook, self.registration_batch, self.overall_registry,
            self.config.participants_per_round,
        )
        self._settled_stats = self.stats.merged_with(streamed.stats)
        if self.score_securely:
            # a new key epoch for the multi-time scoring traffic: a fresh key
            # (the agent's current keypair now matches the scorer's) and no
            # client holds an upload yet — the old scorer's are dropped with it
            self._scorer = SecureDistributionAggregation(self.config, agent=self.agent)

    @property
    def stats(self) -> ProtocolStats:
        """Everything moved so far: every registration plus every scored try."""
        scored = self._scorer.stats if self._scorer else ProtocolStats()
        return self._settled_stats.merged_with(scored)

    def select(self, round_index: int) -> list[int]:
        """Run ``H`` tentative draws, each try's ``p_o`` decrypted from its sum."""
        def populations_of(candidates):
            return np.stack([self._scorer.population(self.client_distributions, c)
                             for c in candidates])

        result = multi_time_selection(
            draw=self._tentative_draw,
            populations_of=populations_of if self.score_securely else self.populations_of,
            uniform=self.uniform,
            tries=self.config.tentative_selections,
        )
        self.last_result = result
        return list(result.best.candidate)
