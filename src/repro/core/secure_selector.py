"""SecureDubheSelector — Dubhe selection driven end-to-end by the HE protocol.

:class:`~repro.core.selectors.DubheSelector` implements the selection
*algorithm* against plaintext label distributions (which is what the
large-scale experiments use — the algebra is identical and Paillier at
benchmark scale would dominate the runtime).  This class runs the same
algorithm through the actual encrypted data path, exactly as deployed, and
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
  from one :meth:`SecureDubheSelector.register` to the next, where every
  client starts over under a new key (a deviation from Fig. 4's per-try
  encryption, see ``docs/paper_mapping.md``);
* the server side of the selector never touches a plaintext distribution or
  a private key.

Packed and per-component ciphertexts decrypt bit-identically, so it picks the
same cohorts as the plaintext selector for the same RNG seed with the same
``last_bias`` floats as a per-component scorer (both verified in the
test-suite), plus a full :class:`ProtocolStats` accounting of what it moved
— so it doubles as a live §6.4 measurement on real selections.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..crypto.keyagent import KeyAgent
from .config import DubheConfig
from .multitime import MultiTimeResult, multi_time_selection
from .probability import VolunteerDraw, participation_probabilities
from .registry import BatchRegistration, RegistryCodebook
from .secure import ProtocolStats, SecureDistributionAggregation, SecureRegistrationRound
from .selectors import ClientSelector, DubheSelector

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
        self.last_result: Optional[MultiTimeResult] = None
        self._volunteer: Optional[VolunteerDraw] = None
        self._registration_round = SecureRegistrationRound(
            config, agent=self.agent, packed=True, aggregation="tree")
        self._scorer: Optional[SecureDistributionAggregation] = None
        self._settled_stats = ProtocolStats()
        self.register()

    # -- the encrypted registration round ---------------------------------------

    def register(self) -> None:
        """Run a full encrypted registration round for every client."""
        streamed = self._registration_round.run_stream(self.client_distributions)
        self.registration_batch: BatchRegistration = streamed.registration
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

    # -- selection ----------------------------------------------------------------

    # the plaintext selector's own draw: same rng stream, hence same cohorts
    _tentative_draw = DubheSelector._tentative_draw

    def select(self, round_index: int) -> list[int]:
        # p_o of a try: recovered from the encrypted aggregate, or plaintext
        population_of = (partial(self._scorer.population, self.client_distributions)
                         if self.score_securely else self.population_of)
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
