"""In-memory dataset containers.

:class:`ArrayDataset` is the minimal dataset abstraction the rest of the
stack needs: ``(x, y)`` pairs backed by numpy arrays and the empirical label
distribution the selection algorithms read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .distributions import label_distribution

__all__ = ["ArrayDataset"]


class ArrayDataset:
    """A dataset of features ``x`` and integer labels ``y`` held in memory."""

    def __init__(self, x: np.ndarray, y: np.ndarray, num_classes: Optional[int] = None):
        x = np.asarray(x)
        y = np.asarray(y)
        if len(x) != len(y):
            raise ValueError(f"feature/label length mismatch: {len(x)} vs {len(y)}")
        if y.ndim != 1:
            raise ValueError("labels must be a 1-D integer array")
        self.x = x
        self.y = y.astype(int)
        if num_classes is None:
            num_classes = int(self.y.max()) + 1 if len(self.y) else 0
        if len(self.y) and self.y.max() >= num_classes:
            raise ValueError("labels exceed num_classes")
        self.num_classes = num_classes

    def __len__(self) -> int:
        return len(self.y)

    def class_distribution(self) -> np.ndarray:
        """Empirical label distribution."""
        return label_distribution(self.y, self.num_classes)
