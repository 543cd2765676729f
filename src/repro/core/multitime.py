"""Multi-time (H-time) tentative selection (§5.3).

Because registries and label distributions travel under additive HE, the
federation can cheaply *rehearse* a selection several times before committing:
each tentative try produces a candidate participant set whose population
distribution is scored (by the agent) against the uniform distribution, and
the best try wins.  The same machinery scores candidate thresholds during the
parameter search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

__all__ = ["TentativeTry", "MultiTimeResult", "multi_time_selection"]

T = TypeVar("T")


@dataclass(frozen=True)
class TentativeTry:
    """One tentative draw and its unbiasedness score ``||p_o,h − p_u||₁``.

    Example
    -------
    >>> import numpy as np
    >>> TentativeTry(0, (1, 2), 0.5, np.array([0.75, 0.25])).score
    0.5
    """

    index: int
    candidate: tuple
    score: float
    population: np.ndarray


@dataclass(frozen=True)
class MultiTimeResult:
    """Outcome of an H-time selection.

    Example
    -------
    >>> import numpy as np
    >>> t = TentativeTry(0, (1,), 0.5, np.array([0.75, 0.25]))
    >>> MultiTimeResult(t, (t,)).best_score
    0.5
    """

    best: TentativeTry
    tries: tuple[TentativeTry, ...]

    @property
    def best_score(self) -> float:
        """Score of the winning tentative try."""
        return self.best.score

    @property
    def scores(self) -> np.ndarray:
        """All H scores in try order."""
        return np.array([t.score for t in self.tries])

    @property
    def mean_population(self) -> np.ndarray:
        """``E_h(p_o,h)`` — the statistic scored by the parameter search."""
        return np.mean([t.population for t in self.tries], axis=0)


def multi_time_selection(
    draw: Callable[[int], Sequence[int]],
    population_of: Callable[[Sequence[int]], np.ndarray],
    uniform: np.ndarray,
    tries: int,
    population_of_many: Callable[[Sequence[Sequence[int]]], np.ndarray] | None = None,
) -> MultiTimeResult:
    """Run *tries* tentative draws and keep the one closest to uniform.

    A try whose members are an earlier try's in another order is the same
    cohort: it is not scored again and shares that try's population and
    score, so the earlier one wins the tie whatever the scorer's arithmetic.

    Parameters
    ----------
    draw:
        ``draw(h)`` produces the candidate participant set of tentative try
        ``h`` (client indices — any integer sequence, including NumPy index
        arrays; candidates are normalised to tuples of Python ints so
        downstream consumers can serialise them).
    population_of:
        Maps a candidate set to its population distribution ``p_o``.
    uniform:
        The target distribution ``p_u``.
    tries:
        Number of tentative selections ``H``.
    population_of_many:
        Optional batch counterpart of *population_of*: maps a list of
        candidate sets to the ``(H, C)`` matrix of their populations.  When
        given (and the non-empty draws share one size), all H tries are
        scored with one vectorised pass instead of H Python calls; row ``h``
        must equal ``population_of(candidates[h])``.

    Example
    -------
    >>> import numpy as np
    >>> dists = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> result = multi_time_selection(
    ...     draw=lambda h: [h], population_of=lambda c: dists[list(c)].mean(axis=0),
    ...     uniform=np.array([0.5, 0.5]), tries=2)
    >>> result.best.candidate in {(0,), (1,)}
    True
    """
    if tries < 1:
        raise ValueError("tries must be positive")
    uniform = np.asarray(uniform, dtype=float)
    draws = [np.asarray(draw(h), dtype=np.int64).ravel() for h in range(tries)]
    candidates = [tuple(drawn.tolist()) for drawn in draws]
    populations: list[Optional[np.ndarray]] = [None] * tries
    scores = np.empty(tries)
    # same members, same cohort: float summation order would otherwise split
    # a permutation from its original by an ulp in plaintext, while the
    # integer sums under encryption tie exactly
    first_with: dict[bytes, int] = {}
    repeats = {h: first_with.setdefault(np.sort(drawn).tobytes(), h)
               for h, drawn in enumerate(draws) if drawn.size}
    non_empty = [h for h, first in repeats.items() if first == h]
    if non_empty:
        sizes = {len(candidates[h]) for h in non_empty}
        if population_of_many is not None and len(sizes) == 1:
            batch = np.asarray(
                population_of_many([candidates[h] for h in non_empty]), dtype=float
            )
            batch_scores = np.abs(batch - uniform[None, :]).sum(axis=1)
            for j, h in enumerate(non_empty):
                populations[h] = batch[j]
                scores[h] = float(batch_scores[j])
        else:
            for h in non_empty:
                populations[h] = np.asarray(population_of(candidates[h]), dtype=float)
                scores[h] = float(np.abs(populations[h] - uniform).sum())
    for h, first in repeats.items():
        populations[h], scores[h] = populations[first], scores[first]
    results: list[TentativeTry] = []
    for h, candidate in enumerate(candidates):
        if populations[h] is None:
            # an empty draw is maximally biased; keep it only if every try is empty
            population = uniform * 0.0
            score = float(np.abs(uniform).sum()) + 1.0
        else:
            population = populations[h]
            score = scores[h]
        results.append(TentativeTry(h, candidate, score, population))
    best = min(results, key=lambda t: t.score)
    return MultiTimeResult(best, tuple(results))
