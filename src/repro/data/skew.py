"""Global data-skew generation (the class imbalance ratio ρ).

The paper (§6.1.1) synthesises globally imbalanced datasets by sampling class
sizes from a **half-normal distribution**, then characterises the skew by the
class imbalance ratio ``ρ`` — the sample size of the most frequent class
divided by that of the least frequent class.

:func:`half_normal_class_proportions` reproduces that construction: class
``c`` is assigned a share proportional to the half-normal density evaluated on
an equally spaced grid, with the grid extent solved analytically so that the
ratio of the largest to the smallest share is exactly ``ρ``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .distributions import normalize_counts

__all__ = ["half_normal_class_proportions"]


def half_normal_class_proportions(num_classes: int, rho: float,
                                  rng: Optional[np.random.Generator] = None,
                                  shuffle: bool = False) -> np.ndarray:
    """Class proportions with a half-normal profile and exact imbalance ratio ρ.

    The half-normal density is ``f(x) ∝ exp(-x² / 2)`` for ``x ≥ 0``.  We
    evaluate it at ``C`` equally spaced points ``x_c = c · s`` and solve for
    the spacing ``s`` such that ``f(x_0) / f(x_{C-1}) = ρ``:

    ``exp(x_{C-1}² / 2) = ρ  ⇒  x_{C-1} = sqrt(2 ln ρ)``.

    Parameters
    ----------
    num_classes:
        Number of classes ``C``.
    rho:
        Target imbalance ratio ``ρ ≥ 1``.  ``ρ = 1`` yields the uniform
        (balanced) global distribution.
    rng, shuffle:
        When *shuffle* is true the class-to-share assignment is permuted with
        *rng* so that the most frequent class is not always class 0.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if rho < 1:
        raise ValueError(f"imbalance ratio must be >= 1, got {rho}")
    if num_classes == 1 or rho == 1.0:
        proportions = np.full(num_classes, 1.0 / num_classes)
    else:
        x_max = np.sqrt(2.0 * np.log(rho))
        x = np.linspace(0.0, x_max, num_classes)
        densities = np.exp(-0.5 * x**2)
        proportions = normalize_counts(densities)
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        proportions = rng.permutation(proportions)
    return proportions
