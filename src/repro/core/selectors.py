"""The three client-selection strategies compared in the paper.

* :class:`RandomSelector` — the baseline: ``K`` clients uniformly at random.
* :class:`GreedySelector` — the Astraea-style "optimal" bound: the server
  greedily builds the set that minimises the KL divergence between the
  selected population distribution and uniform.  It needs every client's
  plaintext label distribution, which is exactly the privacy leak Dubhe
  avoids; it is implemented here as the upper bound the paper compares
  against.
* :class:`DubheSelector` — the paper's contribution: clients register their
  dominating classes in a (homomorphically encryptable) registry, compute
  their own participation probability from the aggregated registry
  (eq. (6)), volunteer by Bernoulli draw, and the server only tops the pool
  up / trims it down to exactly ``K``.  Optional multi-time selection picks
  the most balanced of ``H`` tentative pools.

All selectors implement ``select(round_index) -> list[int]`` so they plug
into :class:`repro.federated.FederatedSimulation` interchangeably.

Every per-client step is array-at-a-time: registration runs through
:meth:`RegistryCodebook.register_batch`, probabilities through the
vectorised eq. (6), tentative draws through boolean masks, and greedy
scoring through pre-allocated ``(N, C)`` buffers — so a million-client
selector holds a handful of contiguous float64/int64 arrays and performs no
per-client Python loops (asserted bit-identical to the reference
implementations by the scale-equivalence suite).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.distributions import kl_divergence, uniform_distribution
from .config import DubheConfig
from .multitime import MultiTimeResult, multi_time_selection
from .probability import VolunteerDraw, participation_probabilities
from .registry import BatchRegistration, RegistryCodebook

__all__ = ["ClientSelector", "RandomSelector", "GreedySelector", "DubheSelector"]


class ClientSelector:
    """Common interface and bookkeeping of all selection strategies.

    Example
    -------
    >>> import numpy as np
    >>> s = ClientSelector(np.array([[0.5, 0.5], [1.0, 0.0]]), 1, seed=0)
    >>> s.bias_of([0])
    0.0
    """

    name = "base"

    def __init__(self, client_distributions: np.ndarray, participants_per_round: int,
                 seed: Optional[int] = None):
        distributions = np.ascontiguousarray(client_distributions, dtype=np.float64)
        if distributions.ndim != 2:
            raise ValueError("client_distributions must be 2-D (clients x classes)")
        if distributions.shape[0] < 1:
            raise ValueError("need at least one client")
        if participants_per_round < 1:
            raise ValueError("participants_per_round must be positive")
        if participants_per_round > distributions.shape[0]:
            raise ValueError("cannot select more clients than exist")
        self.client_distributions = distributions
        self.n_clients, self.num_classes = distributions.shape
        self.participants_per_round = participants_per_round
        self.rng = np.random.default_rng(seed)
        self.uniform = uniform_distribution(self.num_classes)

    # -- helpers -------------------------------------------------------------------

    def population_of(self, selected: Sequence[int]) -> np.ndarray:
        """Population distribution ``p_o`` of a candidate participant set."""
        idx = np.asarray(list(selected), dtype=int)
        if idx.size == 0:
            raise ValueError("cannot score an empty selection")
        return self.client_distributions[idx].mean(axis=0)

    def bias_of(self, selected: Sequence[int]) -> float:
        """``||p_o − p_u||₁`` of a candidate participant set."""
        return float(np.abs(self.population_of(selected) - self.uniform).sum())

    def populations_of(self, candidates: Sequence[Sequence[int]]) -> np.ndarray:
        """Population distributions of several candidate sets at once.

        Equal-sized candidate sets (the common case: every tentative draw is
        topped up/trimmed to K) are scored with a single row ``take`` (the
        rows fancy indexing would copy, at about a third of its cost for an
        ``(H, K)`` index into a 10^5-row matrix) and one mean over the
        member axis; ragged sets fall back to per-candidate calls.  Row
        ``h`` equals ``population_of(candidates[h])``.
        """
        sizes = {len(c) for c in candidates}
        if 0 in sizes:
            raise ValueError("cannot score an empty selection")
        if len(sizes) == 1:
            idx = np.asarray(candidates, dtype=np.int64)
            return self.client_distributions.take(idx, axis=0).mean(axis=1)
        return np.stack([self.population_of(c) for c in candidates])

    def select(self, round_index: int) -> list[int]:
        """Pick the round's participant set (subclasses implement this)."""
        raise NotImplementedError


class RandomSelector(ClientSelector):
    """Uniformly random selection of ``K`` clients (the FL default).

    Example
    -------
    >>> import numpy as np
    >>> s = RandomSelector(np.full((4, 2), 0.5), 2, seed=0)
    >>> sorted(set(s.select(0)) - set(range(4)))
    []
    """

    name = "random"

    def select(self, round_index: int) -> list[int]:
        """``K`` clients uniformly at random, without replacement."""
        chosen = self.rng.choice(self.n_clients, size=self.participants_per_round, replace=False)
        return [int(c) for c in chosen]


class GreedySelector(ClientSelector):
    """Astraea-style greedy selection minimising KL(p_o || p_u).

    Requires global knowledge of every client's label distribution (not
    privacy-preserving) and costs ``O(N·C)`` work per pick — both drawbacks
    the paper quantifies.  Serves as the optimal reference ("opt"/"greedy"
    curves).

    Each pick maintains a running population sum (an O(C) update) and scores
    *all* N candidates with one vectorised ``argmin``: already-selected
    clients are masked to ``+inf`` instead of being re-gathered through a
    shrinking index array, so a step performs no per-candidate Python calls
    and no fancy-index copies of the distribution matrix.  The ``(N, C)``
    scratch buffers are allocated once per ``select`` call and reused by
    every pick (``out=`` kernels, same floating-point operation order per
    element as the allocating version — the regression suite holds the picks
    bit-identical).

    Example
    -------
    >>> import numpy as np
    >>> s = GreedySelector(np.eye(2), 2, seed=0)
    >>> sorted(s.select(0))
    [0, 1]
    """

    name = "greedy"

    def select(self, round_index: int) -> list[int]:
        """Greedily grow the set whose population KL to uniform is minimal."""
        distributions = self.client_distributions
        log_uniform = np.log(self.uniform)
        first = int(self.rng.integers(self.n_clients))
        selected = [first]
        running = distributions[first].copy()  # running population sum, O(C) to update
        available = np.ones(self.n_clients, dtype=bool)
        available[first] = False
        pop = np.empty_like(distributions)          # (N, C) candidate populations
        term = np.empty_like(distributions)         # (N, C) per-class KL terms
        sums = np.empty((self.n_clients, 1))
        kl = np.empty(self.n_clients)
        while len(selected) < self.participants_per_round:
            # population distribution of every candidate joining, all N at once
            np.add(running[None, :], distributions, out=pop)
            np.sum(pop, axis=1, keepdims=True, out=sums)
            pop /= sums
            np.clip(pop, 1e-12, None, out=pop)
            # KL(p_o || p_u) per candidate; taken clients cannot win the argmin
            np.log(pop, out=term)
            term -= log_uniform
            term *= pop
            np.sum(term, axis=1, out=kl)
            kl[~available] = np.inf
            best = int(np.argmin(kl))
            selected.append(best)
            running += distributions[best]
            available[best] = False
        return selected


class DubheSelector(ClientSelector):
    """The Dubhe proactive, privacy-preserving selection strategy.

    Registration, aggregation and probability computation all run on the
    batch path (:meth:`RegistryCodebook.register_batch` → int64 index
    arrays → one ``bincount`` → one vectorised eq. (6)), so constructing a
    selector over N = 10^6 clients allocates O(N) integers, not N one-hot
    vectors.

    Example
    -------
    >>> import numpy as np
    >>> config = DubheConfig(num_classes=2, reference_set=(1, 2),
    ...                      thresholds={1: 0.9, 2: 0.0},
    ...                      participants_per_round=2)
    >>> s = DubheSelector(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
    ...                   config, seed=0)
    >>> s.overall_registry.tolist()
    [1.0, 1.0, 1.0]
    """

    name = "dubhe"

    def __init__(self, client_distributions: np.ndarray, config: DubheConfig,
                 seed: Optional[int] = None):
        super().__init__(client_distributions, config.participants_per_round, seed=seed)
        if config.num_classes != self.num_classes:
            raise ValueError("config num_classes does not match client distributions")
        if not config.has_all_thresholds():
            raise ValueError(
                "DubheConfig is missing thresholds; run repro.core.parameter_search first"
            )
        self.config = config
        self.codebook = RegistryCodebook(config)
        self._volunteer: Optional[VolunteerDraw] = None
        self._register_all()
        self.last_result: Optional[MultiTimeResult] = None

    def _register_all(self) -> None:
        """Run Algorithm 1 + aggregation + eq. (6) over all clients, batched."""
        self.registration_batch: BatchRegistration = self.codebook.register_batch(
            self.client_distributions)
        self.overall_registry = self.registration_batch.overall_registry()
        self.probabilities = participation_probabilities(
            self.codebook, self.registration_batch, self.overall_registry,
            self.config.participants_per_round,
        )

    # -- registration refresh -----------------------------------------------------

    def refresh_registrations(self, client_distributions: Optional[np.ndarray] = None) -> None:
        """Re-run registration (the paper's periodic re-registration)."""
        if client_distributions is not None:
            distributions = np.ascontiguousarray(client_distributions, dtype=np.float64)
            if distributions.shape != self.client_distributions.shape:
                raise ValueError("new distributions must have the same shape")
            self.client_distributions = distributions
        self._register_all()

    # -- one tentative draw ----------------------------------------------------------

    def _tentative_draw(self, _h: int) -> np.ndarray:
        """One proactive participation draw, topped up / trimmed to exactly K.

        Array-native version of the original list-based draw: identical RNG
        stream (one uniform block for the Bernoulli step, then ``choice``
        calls that pick the same positions), so seeded selections match the
        reference implementation element for element.  The Bernoulli step
        is a :class:`VolunteerDraw` kept with ``self.probabilities``: built
        (and the vector checked to lie in [0, 1]) on the first try after
        the vector is set, its draw buffer and mask reused by every later
        try.  ``choice`` draws its positions from the population size
        alone, so the top-up samples positions among the ``N − |pool|``
        clients outside the pool and maps them to client ids with one
        ``searchsorted`` — O(K) work, no N-entry mask.
        """
        if self._volunteer is None or self._volunteer.probabilities is not self.probabilities:
            self._volunteer = VolunteerDraw(self.probabilities)
        pool = self._volunteer(self.rng).astype(np.int64, copy=False)
        k = self.participants_per_round
        if pool.size > k:
            keep = self.rng.choice(pool.size, size=k, replace=False)
            pool = pool[keep]
        elif pool.size < k:
            positions = self.rng.choice(self.n_clients - pool.size,
                                        size=k - pool.size, replace=False)
            # outside the ascending pool, the j-th client is j + #{t : pool[t] − t ≤ j}
            skipped = np.searchsorted(pool - np.arange(pool.size), positions,
                                      side="right")
            pool = np.concatenate([pool, positions + skipped])
        return pool

    # -- public API --------------------------------------------------------------------

    def select(self, round_index: int) -> list[int]:
        """Run ``H`` tentative draws and keep the least-biased pool."""
        result = multi_time_selection(
            draw=self._tentative_draw,
            populations_of=self.populations_of,
            uniform=self.uniform,
            tries=self.config.tentative_selections,
        )
        self.last_result = result
        return list(result.best.candidate)

    @property
    def last_bias(self) -> float:
        """``EMD* = ||p_o,h* − p_u||₁`` of the most recent selection."""
        if self.last_result is None:
            raise RuntimeError("no selection has been performed yet")
        return self.last_result.best_score
