"""Participation-probability calculation (eq. (6)–(8) of the paper).

After the overall registry ``R_A`` is decrypted by the clients, each client
``k`` in category ``u`` computes its own participation probability

``P^(t,k) = min(1, K / (R_A(u) · ||R_A||₀))``

where ``R_A(u)`` is the number of clients registered in the same category and
``||R_A||₀`` the number of non-empty categories.  Two identities follow and
are verified by the tests and the property-based suite:

* the expected number of participants is exactly ``K`` (eq. (7)), provided
  ``K < ||R_A||₀ · min_u R_A(u)`` so no probability saturates at 1;
* the expected number of participants *per category* is ``K / ||R_A||₀``
  (eq. (8)), which is what equalises the frequency of each class appearing as
  a dominating class and thereby flattens the population distribution.

:func:`participation_probabilities` is fully vectorised: for N clients it is
one gather and a handful of array ops over a contiguous float64 registry —
no per-client Python work — and accepts either the original
``list[RegistrationResult]``, a scaled :class:`~repro.core.registry.BatchRegistration`,
or a bare integer index array.  The scalar :func:`participation_probability`
is kept as the readable single-client reference the property suite compares
against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .registry import BatchRegistration, RegistrationResult, RegistryCodebook

__all__ = [
    "participation_probability",
    "participation_probabilities",
    "expected_participants",
    "expected_category_count",
    "bernoulli_participation",
]

Registrations = Union[BatchRegistration, Sequence[RegistrationResult], np.ndarray]


def participation_probability(overall_registry: np.ndarray, category_index: int,
                              participants_per_round: int) -> float:
    """Eq. (6) for a single client given its category's flat registry index.

    Example
    -------
    >>> import numpy as np
    >>> participation_probability(np.array([2.0, 0.0, 2.0]), 0, 2)
    0.5
    """
    overall = np.asarray(overall_registry, dtype=float)
    if participants_per_round < 1:
        raise ValueError("participants_per_round must be positive")
    if not 0 <= category_index < overall.size:
        raise IndexError("category index out of range")
    support = int(np.count_nonzero(overall))
    if support == 0:
        raise ValueError("overall registry is empty")
    count_in_category = overall[category_index]
    if count_in_category <= 0:
        # the client's own registration guarantees R_A(u) >= 1 in a consistent
        # protocol; a zero here means the caller passed mismatched inputs
        raise ValueError("category has no registered clients in the overall registry")
    return float(min(1.0, participants_per_round / (count_in_category * support)))


def _registration_indices(registrations: Registrations) -> np.ndarray:
    """Flat registry indices of a registration collection as int64."""
    if isinstance(registrations, BatchRegistration):
        return registrations.indices
    if isinstance(registrations, np.ndarray):
        return np.ascontiguousarray(registrations, dtype=np.int64)
    return np.array([reg.index for reg in registrations], dtype=np.int64)


def participation_probabilities(codebook: RegistryCodebook,
                                registrations: Registrations,
                                overall_registry: np.ndarray,
                                participants_per_round: int) -> np.ndarray:
    """Eq. (6) evaluated for every registered client, vectorised.

    One gather of ``R_A`` at each client's slot followed by array ops —
    bit-identical to calling :func:`participation_probability` per client
    (same divisions in the same order per element), which the scale
    equivalence suite asserts at N = 10^5.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.config import DubheConfig
    >>> config = DubheConfig(num_classes=2, reference_set=(1, 2),
    ...                      thresholds={1: 0.9, 2: 0.0})
    >>> codebook = RegistryCodebook(config)
    >>> overall = np.array([2.0, 0.0, 2.0])
    >>> participation_probabilities(codebook, np.array([0, 0, 2, 2]), overall, 2)
    array([0.5, 0.5, 0.5, 0.5])
    """
    overall = np.ascontiguousarray(overall_registry, dtype=np.float64)
    if participants_per_round < 1:
        raise ValueError("participants_per_round must be positive")
    indices = _registration_indices(registrations)
    if indices.size == 0:
        return np.empty(0, dtype=np.float64)
    if indices.min() < 0 or indices.max() >= overall.size:
        raise IndexError("category index out of range")
    support = int(np.count_nonzero(overall))
    if support == 0:
        raise ValueError("overall registry is empty")
    counts = overall[indices]
    if np.any(counts <= 0):
        raise ValueError("category has no registered clients in the overall registry")
    probs = participants_per_round / (counts * support)
    np.minimum(probs, 1.0, out=probs)
    return probs


def expected_participants(overall_registry: np.ndarray, participants_per_round: int) -> float:
    """Eq. (7): the expected size of the selection pool ``E|S_t|``.

    Equals ``K`` exactly when no category's probability saturates at 1;
    saturated categories contribute their full client count instead.
    Vectorised over the registry's occupied slots.

    Example
    -------
    >>> import numpy as np
    >>> expected_participants(np.array([3.0, 0.0, 5.0]), 4)
    4.0
    """
    overall = np.asarray(overall_registry, dtype=float)
    support = int(np.count_nonzero(overall))
    if support == 0:
        raise ValueError("overall registry is empty")
    counts = overall[overall > 0]
    probs = np.minimum(1.0, participants_per_round / (counts * support))
    return float(np.sum(counts * probs))


def expected_category_count(overall_registry: np.ndarray, category_index: int,
                            participants_per_round: int) -> float:
    """Eq. (8): the expected number of participants from one category.

    Example
    -------
    >>> import numpy as np
    >>> expected_category_count(np.array([3.0, 0.0, 5.0]), 0, 4)
    2.0
    """
    overall = np.asarray(overall_registry, dtype=float)
    support = int(np.count_nonzero(overall))
    if support == 0:
        raise ValueError("overall registry is empty")
    count = overall[category_index]
    if count <= 0:
        return 0.0
    p = min(1.0, participants_per_round / (count * support))
    return float(count * p)


def bernoulli_participation(probabilities: np.ndarray,
                            rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Each client independently decides to participate (client autonomy).

    Returns the indices of clients whose Bernoulli draw succeeded.  This is
    the step where Dubhe's "clients proactively participate" property lives:
    the server never picks specific clients, it only learns who volunteered.

    Example
    -------
    >>> import numpy as np
    >>> volunteers = bernoulli_participation(np.array([1.0, 0.0, 1.0]))
    >>> volunteers.tolist()
    [0, 2]
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if not np.all((probabilities >= 0) & (probabilities <= 1)):  # NaN fails too
        raise ValueError("probabilities must lie in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng()
    draws = rng.random(probabilities.shape)
    return np.flatnonzero(draws < probabilities)
