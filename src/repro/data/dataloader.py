"""Mini-batch iteration over in-memory datasets.

A deliberately small stand-in for ``torch.utils.data.DataLoader``: shuffling,
fixed batch size ``B`` (the paper uses ``B = 8``), optional drop-last, and a
seeded RNG so federated experiments are bit-reproducible.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .dataset import ArrayDataset

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate over an :class:`ArrayDataset` in mini-batches.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Number of samples per batch (``B`` in the paper's configuration).
    shuffle:
        Reshuffle sample order at the start of every epoch.
    drop_last:
        Drop the final incomplete batch.
    seed:
        Seed of the shuffling RNG; each epoch advances the stream, so two
        loaders constructed with the same seed produce identical batch
        sequences.
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int = 8, shuffle: bool = True,
                 drop_last: bool = False, seed: Optional[int] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = np.random.default_rng(seed)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        x = self.dataset.x
        y = self.dataset.y
        for start in range(0, n, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                break
            yield x[batch_idx], y[batch_idx]
