"""Federated clients: local data, local training, label-distribution reporting.

A :class:`FederatedClient` is a *virtual client* in the paper's sense (§4.1):
it owns exactly ``N_VC`` samples, trains the received global model for ``E``
local epochs with batch size ``B`` using Adam, and returns its updated
weights.  It can also report its label distribution — in plaintext only to
itself; the secure path through :mod:`repro.core.secure` encrypts it before
anything leaves the client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..data.cohort import DatasetCache
from ..data.dataset import ArrayDataset
from ..nn.module import Module
from .workspace import CohortWorkspace, train_cohort

__all__ = ["LocalTrainingConfig", "FederatedClient"]


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Hyper-parameters of one client's local update.

    Defaults follow the paper's group-1 configuration: batch size ``B = 8``,
    ``E = 1`` local epoch, Adam with learning rate ``1e-4``.

    Example
    -------
    >>> config = LocalTrainingConfig(batch_size=8, learning_rate=1e-3)
    >>> config.local_epochs, config.optimizer
    (1, 'adam')
    """

    batch_size: int = 8
    local_epochs: int = 1
    learning_rate: float = 1e-4
    optimizer: str = "adam"
    max_batches_per_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.max_batches_per_epoch is not None and self.max_batches_per_epoch < 1:
            raise ValueError("max_batches_per_epoch must be positive when given")


class FederatedClient:
    """One (virtual) client of the federation.

    Parameters
    ----------
    client_id:
        Stable identifier of the client within the federation.
    dataset:
        The client's local dataset.  It can also be supplied lazily through
        *dataset_factory* so that federations with thousands of clients do not
        materialise every client's samples up front (only selected clients
        ever generate data).
    num_classes:
        Label-space size ``C``.
    cache:
        The shared :class:`repro.data.cohort.DatasetCache` a lazy client
        (one built from *dataset_factory*) keeps its data in, keyed by
        ``client_id``: repeatedly-selected clients hit the cache while a
        federation of millions keeps bounded memory.

    Example
    -------
    >>> import numpy as np
    >>> from repro.data.dataset import ArrayDataset
    >>> data = ArrayDataset(np.zeros((8, 4)), np.zeros(8, dtype=int),
    ...                     num_classes=2)
    >>> client = FederatedClient(client_id=0, num_classes=2, dataset=data)
    >>> client.num_samples, client.dataset.class_distribution().tolist()
    (8, [1.0, 0.0])
    """

    def __init__(self, client_id: int, num_classes: int,
                 dataset: Optional[ArrayDataset] = None,
                 dataset_factory: Optional[Callable[[], ArrayDataset]] = None,
                 seed: Optional[int] = None,
                 cache: Optional[DatasetCache] = None):
        if dataset is None and (dataset_factory is None or cache is None):
            raise ValueError(
                "provide either dataset, or dataset_factory and cache")
        self.client_id = client_id
        self.num_classes = num_classes
        self._dataset = dataset
        self._dataset_factory = dataset_factory
        self._cache = cache
        self.seed = seed

    # -- data access -----------------------------------------------------------

    @property
    def dataset(self) -> ArrayDataset:
        """The client's local dataset (given, or materialised in the cache)."""
        if self._dataset is not None:
            return self._dataset
        return self._cache.get(self.client_id, self._dataset_factory)

    @property
    def num_samples(self) -> int:
        """Number of local samples (``N_VC`` under the FedVC convention)."""
        return len(self.dataset)

    def cohort_slot(self) -> tuple[tuple[int, int], ArrayDataset]:
        """A ``(key, dataset)`` pair for round-persistent cohort stacking.

        The key is stable exactly as long as the dataset object is — given to
        the client, or resident in the shared
        :class:`~repro.data.cohort.DatasetCache` — so a
        :class:`~repro.data.cohort.CohortBuffer` slot holding it can skip the
        restack copy on the next round.  Cache eviction yields a fresh object
        and therefore a fresh key, forcing the copy; data is regenerated
        deterministically, so either way the slot contents are correct.
        """
        dataset = self.dataset
        return (self.client_id, id(dataset)), dataset

    # -- local training -----------------------------------------------------------

    def local_train(self, model: Module, config: LocalTrainingConfig,
                    round_index: int = 0) -> dict[str, np.ndarray]:
        """Train *model*'s weights on the local dataset; return the trained state.

        The caller passes a model loaded with the current global weights.
        The update is a one-client cohort: a fresh
        :class:`~repro.federated.workspace.CohortWorkspace` over *model*, this
        client's one slot, and :func:`~repro.federated.workspace.train_cohort`
        with the batch order seeded from ``seed + 7919 · round_index`` — the
        step every client of a vectorized round runs.  *model* keeps its
        weights; the returned arrays belong to the caller.
        """
        return self._train_slot(self.cohort_slot(), model, config, round_index)

    def _train_slot(self, slot: tuple, model: Module, config: LocalTrainingConfig,
                    round_index: int) -> dict[str, np.ndarray]:
        """:meth:`local_train` on a :meth:`cohort_slot` the caller already took."""
        workspace = CohortWorkspace(model, 1)
        x, y = workspace.buffer.stack([slot])
        seed = None if self.seed is None else self.seed + 7919 * round_index
        train_cohort(workspace.model, workspace.optimizer_for(config), x, y,
                     [np.random.default_rng(seed)], config)
        return {name: stack[0].copy()
                for name, stack in workspace.model.stacked_state().items()}
