"""Model aggregation rules.

The paper adopts the FedVC convention (eq. (1)): because every virtual client
holds the same number of samples and takes the same number of optimisation
steps, the global model is the **plain average** of the selected clients'
models.  The classical sample-weighted FedAvg is provided as well (used by an
ablation benchmark showing the two agree on equal-size clients).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "StackedClientStates",
    "average_states",
    "weighted_average_states",
    "state_difference_norm",
]

StateDict = dict[str, np.ndarray]


class StackedClientStates(list):
    """Per-client state dicts that are zero-copy views into stacked arrays.

    The vectorized executor trains all K clients inside ``(K, *shape)``
    parameter stacks; this container presents them as the usual list of
    per-client state dicts (each entry a dict of views, no copies) while
    keeping the stacks around so aggregation can run as a single ``mean``
    over the client axis instead of re-stacking K dicts.

    Lifetime: with the round-persistent workspace these views alias pools
    the *next* vectorized round of the same executor reuses and overwrites.
    Aggregate (or deep-copy the arrays) before running another round — the
    simulation's round loop does exactly that; only callers that retain
    per-round states across rounds need the copy.

    Example
    -------
    >>> import numpy as np
    >>> stacked = {"w": np.arange(6.0).reshape(3, 2)}  # 3 clients
    >>> states = StackedClientStates([{"w": stacked["w"][k]} for k in range(3)],
    ...                              stacked)
    >>> len(states), states[1]["w"].tolist()
    (3, [2.0, 3.0])
    """

    def __init__(self, per_client: Sequence[StateDict], stacked: StateDict):
        super().__init__(per_client)
        #: parameter name -> ``(K, *shape)`` array holding every client's value
        self.stacked = dict(stacked)


def _check_states(states: Sequence[StateDict]) -> None:
    if not states:
        raise ValueError("cannot aggregate an empty list of model states")
    reference = states[0]
    for state in states[1:]:
        if set(state) != set(reference):
            raise KeyError("model states have different parameter names")
        for key in reference:
            if state[key].shape != reference[key].shape:
                raise ValueError(f"shape mismatch for parameter {key!r}")


def average_states(states: Sequence[StateDict]) -> StateDict:
    """Uniform average of model states — eq. (1) of the paper (FedVC-style).

    :class:`StackedClientStates` take a fast path: their per-client values
    already live in one ``(K, *shape)`` array per parameter, so the average
    is a single ``mean`` over the client axis — the same reduction
    ``np.mean`` performs after stacking a list of states, hence numerically
    identical.

    Example
    -------
    >>> import numpy as np
    >>> average_states([{"w": np.array([0.0, 2.0])},
    ...                 {"w": np.array([2.0, 4.0])}])["w"].tolist()
    [1.0, 3.0]
    """
    if isinstance(states, StackedClientStates):
        return {k: v.mean(axis=0) for k, v in states.stacked.items()}
    _check_states(states)
    keys = states[0].keys()
    return {k: np.mean([s[k] for s in states], axis=0) for k in keys}


def weighted_average_states(states: Sequence[StateDict],
                            weights: Sequence[float]) -> StateDict:
    """Sample-count-weighted FedAvg average (the original McMahan et al. rule).

    Example
    -------
    >>> import numpy as np
    >>> weighted_average_states([{"w": np.array([0.0])},
    ...                          {"w": np.array([4.0])}],
    ...                         weights=[3, 1])["w"].tolist()
    [1.0]
    """
    _check_states(states)
    weights_arr = np.asarray(list(weights), dtype=float)
    if weights_arr.size != len(states):
        raise ValueError("need exactly one weight per model state")
    if np.any(weights_arr < 0) or weights_arr.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    weights_arr = weights_arr / weights_arr.sum()
    keys = states[0].keys()
    return {
        k: np.sum([w * s[k] for w, s in zip(weights_arr, states)], axis=0) for k in keys
    }


def state_difference_norm(a: StateDict, b: StateDict) -> float:
    """L2 norm of the difference between two model states (weight divergence).

    Example
    -------
    >>> import numpy as np
    >>> state_difference_norm({"w": np.array([3.0, 0.0])},
    ...                       {"w": np.array([0.0, 4.0])})
    5.0
    """
    if set(a) != set(b):
        raise KeyError("model states have different parameter names")
    total = 0.0
    for key in a:
        diff = a[key] - b[key]
        total += float(np.sum(diff * diff))
    return float(np.sqrt(total))
