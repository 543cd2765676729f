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

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .config import DubheConfig
from .selectors import DubheSelector

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

    # each grid point rehearses H = tries, whatever H the config settles with
    rehearsal = replace(config, tentative_selections=tries)
    free = [i for i in config.reference_set if i != config.num_classes]
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
        # one select of the selector being settled, on the search's own
        # generator (default_rng hands a Generator back unchanged): each grid
        # point draws on from where the previous one stopped
        selector = DubheSelector(distributions, rehearsal.with_thresholds(thresholds),
                                 seed=rng)
        selector.select(0)
        # §5.3.2 scores the *expectation* of p_o over the H tries
        score = float(np.abs(selector.last_result.mean_population
                             - selector.uniform).sum())
        all_scores[assignment] = score
        if score < best_score:
            best_score = score
            best_thresholds = thresholds
    settled = config.with_thresholds(best_thresholds)
    return ParameterSearchResult(best_thresholds, float(best_score), settled, all_scores)
