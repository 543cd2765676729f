"""The one training step, and the round-persistent state it runs on.

:func:`train_cohort` is every client's local update: the executor's
vectorized rounds and a single client's
:meth:`~repro.federated.FederatedClient.local_train` (a K = 1 cohort) both
run it.  A :class:`CohortWorkspace` owns

* the :class:`~repro.nn.batched.BatchedModel` with its flat ``(K·P)``
  value/grad pools,
* the fused cohort optimiser (Adam moments / SGD velocity, pool-sized), and
* the dense ``(K, N_vc, …)`` data buffers
  (:class:`~repro.data.cohort.CohortBuffer`),

and :class:`~repro.federated.LocalUpdateExecutor` reuses one workspace for
as long as consecutive rounds are *shape-compatible*: the same cohort size
and the same :func:`~repro.nn.batched.program_signature` of the round's
fresh template (:meth:`CohortWorkspace.adopt`).  Each such round resets —
never reallocates — the optimiser state and restacks only the data slots
whose selected client changed.  A reused round is arithmetically
indistinguishable from a freshly built one: every client starts every round
from the broadcast global parameters and a fresh optimiser, and the
signature pins everything else the program computes with.

Numerical safety valves: another signature or a changed cohort size
silently rebuilds the workspace (counted in
``LocalUpdateExecutor.workspace_builds``); a ragged cohort never reaches the
workspace — the executor checks the cohort's shape first and trains it one
client at a time, so the pools stay as the last dense round left them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..data.cohort import CohortBuffer
from ..nn.batched import (BatchedAdam, BatchedModel, BatchedSGD,
                          batched_cross_entropy, program_signature)
from ..nn.module import Module

if TYPE_CHECKING:  # the client trains through this module
    from .client import LocalTrainingConfig

__all__ = ["CohortWorkspace", "train_cohort"]


def train_cohort(model: BatchedModel, optimizer: "BatchedAdam | BatchedSGD",
                 x: np.ndarray, y: np.ndarray,
                 rngs: "Sequence[np.random.Generator]",
                 config: LocalTrainingConfig,
                 rows: Optional[np.ndarray] = None) -> None:
    """Run every client's full local update as one batched tensor program.

    This is the only training step in the package, shared by the executor's
    vectorized rounds and :meth:`~repro.federated.FederatedClient.local_train`.  Each epoch every
    client shuffles its samples with one permutation drawn from its own
    generator in *rngs* (seeded from the client's seed and the round), then
    steps through batches of ``config.batch_size``; the client loop is
    folded into the leading axis of the ``(K, N_vc, …)`` arrays *x* / *y*.
    The trained parameters land in *model*'s flat value pool; nothing is
    returned.

    *rows* is the precomputed ``(K, 1)`` client-row index used for per-batch
    gathers (recomputed when omitted — the round-persistent workspace caches
    it across rounds).

    Example
    -------
    >>> import numpy as np
    >>> from repro.federated.client import LocalTrainingConfig
    >>> from repro.nn.batched import BatchedAdam, BatchedModel
    >>> from repro.nn.models import MLP
    >>> model = BatchedModel(MLP(4, 2, hidden=(3,), seed=0), num_clients=2)
    >>> x, y = np.ones((2, 8, 4)), np.zeros((2, 8), dtype=int)
    >>> rngs = [np.random.default_rng(k) for k in range(2)]
    >>> train_cohort(model, BatchedAdam(model), x, y, rngs,
    ...              LocalTrainingConfig(batch_size=4))
    """
    n = x.shape[1]
    if rows is None:
        rows = np.arange(x.shape[0])[:, None]
    model.train()
    for _ in range(config.local_epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs]) if n else None
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            if (config.max_batches_per_epoch is not None
                    and batch_index >= config.max_batches_per_epoch):
                break
            idx = orders[:, start : start + config.batch_size]
            xb = x[rows, idx]
            yb = y[rows, idx]
            logits = model.forward(xb)
            _, grad = batched_cross_entropy(logits, yb)
            # no zero_grad: batched layer backwards assign (not accumulate)
            model.backward(grad)
            optimizer.step()


class CohortWorkspace:
    """Flat pools, optimiser state and cohort buffers reused across rounds.

    Example
    -------
    >>> from repro.nn.models import MLP
    >>> workspace = CohortWorkspace(MLP(4, 2, hidden=(3,), seed=0),
    ...                             num_clients=8)
    >>> workspace.model.num_clients, workspace.rounds_bound
    (8, 1)
    >>> workspace.adopt(MLP(4, 2, hidden=(3,), seed=0), num_clients=8)
    True
    """

    def __init__(self, template: Module, num_clients: int):
        #: the batched tensor program; its flat pools live for the workspace's lifetime
        self.model = BatchedModel(template, num_clients)
        self.num_clients = num_clients
        #: dense (K, N_vc, …) data buffers with per-slot restack skipping
        self.buffer = CohortBuffer(num_clients)
        self._optimizer: "Optional[BatchedAdam | BatchedSGD]" = None
        self._optimizer_kind: Optional[str] = None
        #: precomputed client-row index for per-batch gathers
        self.client_rows = np.arange(num_clients)[:, None]
        #: rounds served by this workspace (first build included)
        self.rounds_bound = 1

    # -- per-round lifecycle ---------------------------------------------------

    def adopt(self, template: Module, num_clients: int) -> bool:
        """Try to serve a new round from the existing pools.

        Returns ``True`` when *num_clients* and *template*'s
        :func:`~repro.nn.batched.program_signature` are the workspace's
        own; the round then loads its global state into the warm program.
        ``False`` means the round is shape-incompatible and the executor
        must build a new workspace.
        """
        if (num_clients != self.num_clients
                or program_signature(template) != self.model.signature):
            return False
        self.rounds_bound += 1
        return True

    def optimizer_for(self, config: LocalTrainingConfig) -> "BatchedAdam | BatchedSGD":
        """The round's optimiser: state reset in place, never reallocated.

        Every client starts its round with a fresh optimiser, so the
        persistent one is reset (moments zeroed, step counter rewound) rather
        than carried over — bit-identical semantics without the pool-sized
        allocations.  Switching between Adam and SGD mid-run rebuilds it.
        """
        if self._optimizer is None or self._optimizer_kind != config.optimizer:
            cls = BatchedAdam if config.optimizer == "adam" else BatchedSGD
            self._optimizer = cls(self.model, lr=config.learning_rate)
            self._optimizer_kind = config.optimizer
        else:
            self._optimizer.lr = config.learning_rate
            self._optimizer.reset()
        return self._optimizer
