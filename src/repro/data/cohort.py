"""Cohort stacking and pooled client-dataset generation.

Two pieces of plumbing for the vectorized (cohort) execution back-end:

* :class:`DatasetCache` — a bounded, thread-safe LRU pool of materialised
  client datasets keyed by client id.  Synthetic client data is generated
  deterministically from a per-client seed, so eviction is safe (a re-selected
  evicted client regenerates bit-identical data) while repeatedly-selected
  clients stop paying the generation cost every round.
* :class:`CohortBuffer` — stacks the K selected clients' datasets into one
  ``(K, N_vc, …)`` features array and ``(K, N_vc)`` labels array, the layout
  every batched kernel consumes.  Virtual clients all hold the same number
  of samples (the paper's FedVC convention), which is what makes the cohort
  a dense rectangular tensor; :func:`cohort_sample_shape` is the one check
  of that, and a ragged cohort raises :class:`CohortShapeError` so callers
  fall back to per-client execution.  The buffers persist
  across rounds and only the slots whose selected client changed are
  restacked, so a stable (or slowly-rotating) selection pays the K-dataset
  memcpy once instead of every round.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from .dataset import ArrayDataset

__all__ = ["CohortBuffer", "CohortShapeError", "DatasetCache",
           "cohort_sample_shape"]


class CohortShapeError(ValueError):
    """The client datasets cannot be stacked into one rectangular cohort."""


def cohort_sample_shape(datasets: Sequence[ArrayDataset]) -> tuple:
    """The one feature shape every dataset in *datasets* shares.

    Raises :class:`CohortShapeError` naming the first client whose features
    differ: such a ragged cohort cannot be stacked into one dense tensor.

    Example
    -------
    >>> import numpy as np
    >>> small = ArrayDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), num_classes=2)
    >>> large = ArrayDataset(np.zeros((6, 2)), np.zeros(6, dtype=int), num_classes=2)
    >>> cohort_sample_shape([small, small])
    (4, 2)
    >>> cohort_sample_shape([small, large])
    Traceback (most recent call last):
    ...
    repro.data.cohort.CohortShapeError: client 1 has data shape (6, 2), expected (4, 2); ragged cohorts cannot be vectorized
    """
    reference = np.asarray(datasets[0].x).shape
    for k, ds in enumerate(datasets[1:], start=1):
        if np.asarray(ds.x).shape != reference:
            raise CohortShapeError(
                f"client {k} has data shape {np.asarray(ds.x).shape}, expected "
                f"{reference}; ragged cohorts cannot be vectorized"
            )
    return reference


class DatasetCache:
    """A bounded LRU cache of materialised client datasets.

    Parameters
    ----------
    capacity:
        Maximum number of client datasets held at once.  The least recently
        *used* (selected) client is evicted first, so the hot set of
        frequently-selected clients stays resident while a federation of
        millions of clients keeps bounded memory.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, ArrayDataset] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, factory: Callable[[], ArrayDataset]) -> ArrayDataset:
        """The cached dataset for *key*, materialising it via *factory* on miss."""
        with self._lock:
            dataset = self._entries.get(key)
            if dataset is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return dataset
            self.misses += 1
        # generate outside the lock: misses on distinct clients can overlap
        dataset = factory()
        with self._lock:
            self._entries[key] = dataset
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return dataset


class CohortBuffer:
    """Round-persistent ``(K, N_vc, …)`` stacking buffers with slot reuse.

    A :class:`CohortBuffer` keeps its dense arrays alive between rounds and
    tracks which dataset *object* currently occupies each client slot.  A
    slot whose selected client hands back the very same dataset object
    (given to the client, or resident in the shared :class:`DatasetCache`)
    skips its copy entirely; only slots whose selection changed — or whose dataset was
    evicted and regenerated — are restacked.  Slot datasets are pinned
    (referenced) while resident, so object identity is a sound freshness key.

    Features are cast to the float64 pools once, on the copy into the
    buffer, instead of per batch.  Labels keep their integral dtype.

    Example
    -------
    >>> import numpy as np
    >>> from repro.data.dataset import ArrayDataset
    >>> ds = ArrayDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), num_classes=2)
    >>> buffer = CohortBuffer(num_clients=2)
    >>> x, y = buffer.stack([("a", ds), ("b", ds)])
    >>> x.shape, buffer.restacked
    ((2, 4, 2), 2)
    >>> _ = buffer.stack([("a", ds), ("b", ds)])  # same slots: no copies
    >>> buffer.reused
    2
    """

    def __init__(self, num_clients: int):
        if num_clients < 1:
            raise ValueError("num_clients must be positive")
        self.num_clients = num_clients
        self.x: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self._slot_keys: list[Optional[Hashable]] = [None] * num_clients
        self._slot_pins: list[Optional[ArrayDataset]] = [None] * num_clients
        #: how many times the dense buffers were (re)allocated
        self.allocations = 0
        #: cumulative slots copied / skipped across all stack() calls
        self.restacked = 0
        self.reused = 0

    def stack(self, slots: Sequence[tuple[Hashable, ArrayDataset]],
              ) -> tuple[np.ndarray, np.ndarray]:
        """Bring the buffers up to date with *slots* and return ``(x, y)``.

        *slots* holds one ``(key, dataset)`` pair per client position (see
        :meth:`repro.federated.FederatedClient.cohort_slot`); the key must
        change whenever the dataset contents may have.  Ragged cohorts raise
        :class:`CohortShapeError`.
        """
        if len(slots) != self.num_clients:
            raise CohortShapeError(
                f"expected {self.num_clients} cohort slots, got {len(slots)}"
            )
        datasets = [ds for _, ds in slots]
        shape = (self.num_clients,) + cohort_sample_shape(datasets)
        if self.x is None or self.x.shape != shape:
            self.x = np.empty(shape)
            self.y = np.empty(shape[:2], dtype=np.asarray(datasets[0].y).dtype)
            self._slot_keys = [None] * self.num_clients
            self._slot_pins = [None] * self.num_clients
            self.allocations += 1
        for k, (key, ds) in enumerate(slots):
            if self._slot_keys[k] == key and self._slot_pins[k] is ds:
                self.reused += 1
                continue
            self.x[k] = ds.x
            self.y[k] = ds.y
            self._slot_keys[k] = key
            self._slot_pins[k] = ds
            self.restacked += 1
        return self.x, self.y
