"""Label-distribution utilities shared across the whole reproduction.

The paper's statistical-heterogeneity machinery is built from three numbers:

* the **Earth Mover's Distance** (1-norm distance) between two label
  distributions, ``EMD(p, q) = ||p − q||₁`` (§3, §4.2),
* the **class imbalance ratio** ``ρ`` — most-frequent class count divided by
  least-frequent class count (§3, §6.1.1), and
* the **average client EMD** ``EMD_avg = Σ_k EMD_k / N`` where
  ``EMD_k = ||p_l^k − p_o||₁`` measures the discrepancy between client ``k``
  and the population distribution (§6.1.1).

All distributions are plain 1-D numpy arrays that sum to one; a federation's
are one ``(n, C)`` matrix, one row per client, and the helpers below work on
the whole matrix at once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "uniform_distribution",
    "normalize_counts",
    "emd",
    "imbalance_ratio",
    "average_emd",
    "label_counts",
    "label_distribution",
    "population_distribution",
]


def uniform_distribution(num_classes: int) -> np.ndarray:
    """The uniform distribution ``p_u`` over *num_classes* classes."""
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    return np.full(num_classes, 1.0 / num_classes)


def normalize_counts(counts: np.ndarray | Sequence[float]) -> np.ndarray:
    """Turn non-negative counts into a distribution, row by row.

    *counts* is one count vector or an ``(n, C)`` matrix of them.  A zero
    row maps to the uniform distribution; this mirrors how the paper treats
    an empty selection (no information, assume uniform).
    """
    arr = np.asarray(counts, dtype=float)
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    total = arr.sum(axis=-1, keepdims=True)
    empty = total == 0
    if empty.any():
        arr = np.where(empty, uniform_distribution(arr.shape[-1]), arr)
        total = np.where(empty, 1.0, total)
    return arr / total


def emd(p: np.ndarray, q: np.ndarray) -> float:
    """Earth Mover's Distance as defined in the paper: the 1-norm ``||p − q||₁``.

    For label distributions this lies in ``[0, 2]``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).sum())


def imbalance_ratio(counts: np.ndarray | Sequence[float]) -> float:
    """Class imbalance ratio ρ = max class count / min class count.

    Classes with zero samples make ρ infinite, mirroring the paper's
    definition (the least frequent class count is the denominator).
    """
    arr = np.asarray(counts, dtype=float)
    if arr.size == 0:
        raise ValueError("counts must be non-empty")
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    low = arr.min()
    if low == 0:
        return float("inf")
    return float(arr.max() / low)


def label_counts(labels: np.ndarray | Iterable[int], num_classes: int) -> np.ndarray:
    """Per-class sample counts of an integer label array."""
    arr = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels)
    if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    return np.bincount(arr.astype(int), minlength=num_classes).astype(float)


def label_distribution(labels: np.ndarray | Iterable[int], num_classes: int) -> np.ndarray:
    """Empirical label distribution ``p_l`` of an integer label array."""
    return normalize_counts(label_counts(labels, num_classes))


def population_distribution(
        client_distributions: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Population distribution ``p_o`` of a selection (eq. after (2)).

    With FedVC virtual clients every client contributes the same number of
    samples, so ``p_o`` is the plain average of the selected clients' label
    distributions, given as an ``(n, C)`` matrix or a sequence of rows.
    """
    if len(client_distributions) == 0:
        raise ValueError("population of an empty selection is undefined")
    return np.asarray(client_distributions, dtype=float).mean(axis=0)


def average_emd(client_distributions: np.ndarray | Sequence[np.ndarray],
                reference: np.ndarray | None = None) -> float:
    """``EMD_avg`` of a federation: mean ``||p_l^k − reference||₁`` over clients.

    *client_distributions* is an ``(n, C)`` matrix or a sequence of rows.
    When *reference* is omitted the population distribution over **all**
    clients is used, matching §6.1.1 of the paper.
    """
    if len(client_distributions) == 0:
        raise ValueError("average EMD of an empty federation is undefined")
    dists = np.asarray(client_distributions, dtype=float)
    if reference is None:
        reference = population_distribution(dists)
    reference = np.asarray(reference, dtype=float)
    if reference.shape != dists.shape[1:]:
        raise ValueError(f"shape mismatch: {dists.shape[1:]} vs {reference.shape}")
    return float(np.abs(dists - reference).sum(axis=1).mean())
