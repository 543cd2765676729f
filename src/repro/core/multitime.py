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
from typing import Callable, Sequence

import numpy as np

__all__ = ["TentativeTry", "MultiTimeResult", "multi_time_selection"]


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
    populations_of: Callable[[Sequence[np.ndarray]], np.ndarray],
    uniform: np.ndarray,
    tries: int,
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
    populations_of:
        Maps the distinct non-empty candidate sets (one int64 array per
        try, in try order) to the ``(n, C)`` matrix of their population
        distributions ``p_o``; called once per selection.
    uniform:
        The target distribution ``p_u``.
    tries:
        Number of tentative selections ``H``.

    Example
    -------
    >>> import numpy as np
    >>> dists = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> result = multi_time_selection(
    ...     draw=lambda h: [h],
    ...     populations_of=lambda cs: np.stack([dists[c].mean(axis=0) for c in cs]),
    ...     uniform=np.array([0.5, 0.5]), tries=2)
    >>> result.best.candidate in {(0,), (1,)}
    True
    """
    if tries < 1:
        raise ValueError("tries must be positive")
    uniform = np.asarray(uniform, dtype=float)
    draws = [np.asarray(draw(h), dtype=np.int64).ravel() for h in range(tries)]
    # same members, same cohort: float summation order would otherwise split
    # a permutation from its original by an ulp in plaintext, while the
    # integer sums under encryption tie exactly
    first_with: dict[bytes, int] = {}
    first = {h: first_with.setdefault(np.sort(drawn).tobytes(), h)
             for h, drawn in enumerate(draws) if drawn.size}
    distinct = list(first_with.values())
    if distinct:
        batch = np.asarray(populations_of([draws[h] for h in distinct]), dtype=float)
        batch_scores = np.abs(batch - uniform[None, :]).sum(axis=1)
        row = {h: j for j, h in enumerate(distinct)}
    results: list[TentativeTry] = []
    for h, drawn in enumerate(draws):
        if h in first:
            j = row[first[h]]
            population, score = batch[j], float(batch_scores[j])
        else:
            # an empty draw is maximally biased; keep it only if every try is empty
            population, score = uniform * 0.0, float(np.abs(uniform).sum()) + 1.0
        results.append(TentativeTry(h, tuple(drawn.tolist()), score, population))
    best = min(results, key=lambda t: t.score)
    return MultiTimeResult(best, tuple(results))
