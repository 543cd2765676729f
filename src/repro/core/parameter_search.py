"""The Dubhe parameter-search procedure (§5.3.2).

The registration thresholds ``σ_i`` decide how concentrated a client's data
must be before it is categorised as having ``i`` dominating classes.  Poorly
chosen thresholds push every client into the "no dominating class" bucket
(registry carries no information) or categorise weakly skewed clients too
aggressively (participation probabilities stop flattening the population
distribution).

Whenever the federation's structure changes (global data pattern, client
count, participation rate), the unsettled selection module traverses a grid
of candidate thresholds; for each candidate it simulates ``H`` tentative
selections and scores ``||E_h(p_o,h) − p_u||₁``.  The winning thresholds are
dispatched to the clients and the module is settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .config import DubheConfig
from .multitime import multi_time_selection
from .probability import bernoulli_participation, participation_probabilities
from .registry import RegistryCodebook

__all__ = ["ParameterSearchResult", "default_sigma_grid", "search_thresholds"]


@dataclass(frozen=True)
class ParameterSearchResult:
    """Outcome of a parameter search."""

    thresholds: dict[int, float]
    score: float                       # ||E_h(p_o,h) − p_u||₁ of the winner
    config: DubheConfig                # a settled copy of the input config
    all_scores: dict[tuple[float, ...], float]  # grid point → score


def default_sigma_grid(values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)) -> tuple[float, ...]:
    """The default grid of candidate threshold values."""
    grid = tuple(float(v) for v in values)
    if not grid or any(not 0 <= v <= 1 for v in grid):
        raise ValueError("sigma grid values must lie in [0, 1]")
    return grid


def _score_candidate(config: DubheConfig, client_distributions: np.ndarray,
                     tries: int, rng: np.random.Generator) -> float:
    """Score one threshold assignment by the expected population bias."""
    codebook = RegistryCodebook(config)
    registrations = codebook.register_batch(client_distributions)
    probabilities = participation_probabilities(
        codebook, registrations, registrations.overall_registry(),
        config.participants_per_round)
    uniform = np.full(config.num_classes, 1.0 / config.num_classes)
    n_clients = client_distributions.shape[0]

    def draw(_h: int) -> list[int]:
        volunteers = bernoulli_participation(probabilities, rng=rng)
        pool = [int(v) for v in volunteers]
        k = config.participants_per_round
        if len(pool) > k:
            keep = rng.choice(len(pool), size=k, replace=False)
            pool = [pool[i] for i in keep]
        elif len(pool) < k:
            outside = np.setdiff1d(np.arange(n_clients), np.asarray(pool, dtype=int))
            extra = rng.choice(outside, size=k - len(pool), replace=False)
            pool.extend(int(e) for e in extra)
        return pool

    def population_of(selected: Sequence[int]) -> np.ndarray:
        return client_distributions[np.asarray(list(selected), dtype=int)].mean(axis=0)

    result = multi_time_selection(draw, population_of, uniform, tries)
    # §5.3.2 scores the *expectation* of p_o over the H tries
    return float(np.abs(result.mean_population - uniform).sum())


def search_thresholds(client_distributions: np.ndarray, config: DubheConfig,
                      sigma_grid: Optional[Sequence[float]] = None,
                      tries: Optional[int] = None,
                      seed: Optional[int] = None) -> ParameterSearchResult:
    """Grid-search the registration thresholds for a federation.

    Parameters
    ----------
    client_distributions:
        Plaintext label distributions used to *simulate* the search.  In the
        deployed protocol the equivalent information only ever flows through
        encrypted registries/distributions; the search itself evaluates the
        same quantity ``||E_h(p_o,h) − p_u||₁`` the agent would compute from
        decrypted aggregates.
    config:
        A :class:`DubheConfig`; its ``thresholds`` are ignored except σ_C.
    sigma_grid:
        Candidate values for every free threshold (defaults to
        ``{0.1, 0.3, 0.5, 0.7, 0.9}``).
    tries:
        Number of tentative selections per grid point (defaults to the
        config's ``tentative_selections``).
    """
    distributions = np.asarray(client_distributions, dtype=float)
    if distributions.ndim != 2 or distributions.shape[1] != config.num_classes:
        raise ValueError("client_distributions must be (n_clients, num_classes)")
    grid = default_sigma_grid() if sigma_grid is None else default_sigma_grid(sigma_grid)
    tries = config.tentative_selections if tries is None else int(tries)
    if tries < 1:
        raise ValueError("tries must be positive")
    rng = np.random.default_rng(seed if seed is not None else config.seed)

    free = [i for i in config.reference_set if i != config.num_classes]
    if not free:
        settled = config.with_thresholds({config.num_classes: 0.0})
        score = _score_candidate(settled, distributions, tries, rng)
        return ParameterSearchResult({config.num_classes: 0.0}, score, settled, {(): score})

    best_score = np.inf
    best_thresholds: dict[int, float] = {}
    all_scores: dict[tuple[float, ...], float] = {}
    for assignment in product(grid, repeat=len(free)):
        # thresholds must be non-increasing in i: a block with more dominating
        # classes cannot demand a higher per-class share than a smaller block
        if any(assignment[j] < assignment[j + 1] for j in range(len(assignment) - 1)):
            continue
        thresholds = {i: s for i, s in zip(free, assignment)}
        thresholds[config.num_classes] = 0.0
        candidate = config.with_thresholds(thresholds)
        score = _score_candidate(candidate, distributions, tries, rng)
        all_scores[assignment] = score
        if score < best_score:
            best_score = score
            best_thresholds = thresholds
    settled = config.with_thresholds(best_thresholds)
    return ParameterSearchResult(best_thresholds, float(best_score), settled, all_scores)
