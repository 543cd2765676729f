"""The Figure 9 experiment: unbiasedness versus participation rate.

For a fixed federation, sweep the participation count ``K`` and measure the
mean and standard deviation of ``||p_o − p_u||₁`` over repeated selections
for each strategy (random, greedy, Dubhe).  The paper's headline claim —
Dubhe reduces the population bias by up to 64.4 % relative to random
selection on the most skewed dataset — is computed from exactly these
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.config import DubheConfig
from ..core.parameter_search import search_thresholds
from ..core.selectors import DubheSelector, GreedySelector, RandomSelector
from .emd import SelectionBiasStats, baseline_global_bias, measure_selection_bias

__all__ = ["UnbiasednessSweep", "run_unbiasedness_sweep", "bias_reduction"]


@dataclass(frozen=True)
class UnbiasednessSweep:
    """Results of sweeping K for every selection strategy."""

    participation_counts: tuple[int, ...]
    stats: dict[str, tuple[SelectionBiasStats, ...]]   # strategy → per-K stats
    baseline_bias: float                                # ||p_g − p_u||₁

    def mean_series(self, strategy: str) -> np.ndarray:
        return np.array([s.mean_bias for s in self.stats[strategy]])

    def std_series(self, strategy: str) -> np.ndarray:
        return np.array([s.std_bias for s in self.stats[strategy]])


def bias_reduction(sweep: UnbiasednessSweep, strategy: str = "dubhe",
                   reference: str = "random") -> float:
    """Largest relative reduction of mean bias of *strategy* vs *reference*.

    The paper reports 64.4 % for Dubhe vs random on MNIST/CIFAR10-10/1.5.
    """
    target = sweep.mean_series(strategy)
    base = sweep.mean_series(reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        reductions = np.where(base > 0, 1.0 - target / base, 0.0)
    return float(np.max(reductions))


def run_unbiasedness_sweep(
    client_distributions: np.ndarray,
    participation_counts: Sequence[int],
    config_factory: Callable[[int], DubheConfig],
    repetitions: int = 100,
    seed: Optional[int] = None,
    include_greedy: bool = True,
) -> UnbiasednessSweep:
    """Measure bias statistics for every strategy at every participation count.

    Parameters
    ----------
    client_distributions:
        Label distributions of the federation, shape ``(N, C)``.
    participation_counts:
        The values of ``K`` to sweep (Figure 9 uses 10…1000 of 1000).
    config_factory:
        ``config_factory(K)`` returns the :class:`DubheConfig` to use at that
        participation count.  Thresholds are found by parameter search when
        the returned config has none.
    repetitions:
        Number of repeated selections per point (the paper uses 100).
    """
    distributions = np.asarray(client_distributions, dtype=float)
    if distributions.ndim != 2:
        raise ValueError("client_distributions must be 2-D")
    n_clients = distributions.shape[0]
    counts = tuple(int(k) for k in participation_counts)
    if any(k < 1 or k > n_clients for k in counts):
        raise ValueError("participation counts must lie in [1, n_clients]")

    strategies: dict[str, list[SelectionBiasStats]] = {"random": [], "dubhe": []}
    if include_greedy:
        strategies["greedy"] = []

    for i, k in enumerate(counts):
        seed_k = None if seed is None else seed + 1000 * i
        random_selector = RandomSelector(distributions, k, seed=seed_k)
        strategies["random"].append(
            measure_selection_bias(random_selector, distributions, repetitions)
        )
        if include_greedy:
            greedy_selector = GreedySelector(distributions, k, seed=seed_k)
            strategies["greedy"].append(
                measure_selection_bias(greedy_selector, distributions, repetitions)
            )
        config = config_factory(k)
        if not config.has_all_thresholds():
            config = search_thresholds(distributions, config, seed=seed_k).config
        dubhe_selector = DubheSelector(distributions, config, seed=seed_k)
        strategies["dubhe"].append(
            measure_selection_bias(dubhe_selector, distributions, repetitions)
        )

    return UnbiasednessSweep(
        participation_counts=counts,
        stats={name: tuple(series) for name, series in strategies.items()},
        baseline_bias=baseline_global_bias(distributions),
    )
