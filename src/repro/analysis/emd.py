"""Population-bias measurement over repeated selections.

The quantity Dubhe optimises is ``||p_o − p_u||₁`` — the 1-norm distance
between the population distribution of a round's participants and the
uniform distribution.  Figure 9 of the paper characterises a selection
strategy by the *mean* and *standard deviation* of that quantity over 100
repeated selections at different participation rates.  This module provides
that measurement for any selector that implements ``select(round_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.distributions import emd, uniform_distribution

__all__ = ["SelectionBiasStats", "measure_selection_bias", "baseline_global_bias"]


@dataclass(frozen=True)
class SelectionBiasStats:
    """Mean/std of ``||p_o − p_u||₁`` over repeated selections of one strategy."""

    selector_name: str
    participants_per_round: int
    repetitions: int
    mean_bias: float
    std_bias: float
    biases: tuple[float, ...]


def measure_selection_bias(selector, client_distributions: np.ndarray,
                           repetitions: int = 100) -> SelectionBiasStats:
    """Run *repetitions* independent selections and summarise their bias.

    Parameters
    ----------
    selector:
        Any object with ``select(round_index)`` and (optionally) ``name`` /
        ``participants_per_round`` attributes (all selectors in
        :mod:`repro.core.selectors` qualify).
    client_distributions:
        Label distributions of every client, shape ``(N, C)``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    distributions = np.asarray(client_distributions, dtype=float)
    uniform = uniform_distribution(distributions.shape[1])
    biases = []
    for r in range(repetitions):
        selected = list(selector.select(r))
        if not selected:
            raise RuntimeError("selector returned an empty selection")
        population = distributions[np.asarray(selected, dtype=int)].mean(axis=0)
        biases.append(emd(population, uniform))
    biases_arr = np.asarray(biases)
    return SelectionBiasStats(
        selector_name=getattr(selector, "name", type(selector).__name__),
        participants_per_round=getattr(selector, "participants_per_round", len(selected)),
        repetitions=repetitions,
        mean_bias=float(biases_arr.mean()),
        std_bias=float(biases_arr.std()),
        biases=tuple(float(b) for b in biases_arr),
    )


def baseline_global_bias(client_distributions: np.ndarray) -> float:
    """``||p_g − p_u||₁`` — Figure 9's "Base Line" (full participation bias)."""
    distributions = np.asarray(client_distributions, dtype=float)
    if distributions.ndim != 2 or distributions.shape[0] == 0:
        raise ValueError("client_distributions must be a non-empty 2-D array")
    global_dist = distributions.mean(axis=0)
    return emd(global_dist, uniform_distribution(distributions.shape[1]))
