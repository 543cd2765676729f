"""Weight initialisers (Kaiming, zeros) for the NumPy NN substrate.

All initialisers take an explicit ``numpy.random.Generator`` so that model
construction is bit-reproducible — federated experiments must start every
comparison (random vs greedy vs Dubhe selection) from the *same* global
model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "zeros"]


def kaiming_uniform(shape: tuple[int, ...], fan_in: int,
                    rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialisation, suitable for ReLU networks."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape)
