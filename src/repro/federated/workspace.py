"""Round-persistent state of the vectorized (cohort) execution back-end.

PR 2 made a single vectorized round fast; this module makes *multi-round*
simulations fast by keeping everything a round allocates alive between
rounds.  A :class:`CohortWorkspace` owns

* the :class:`~repro.nn.batched.BatchedModel` with its flat ``(K·P)``
  value/grad pools,
* the fused cohort optimiser (Adam moments / SGD velocity, pool-sized), and
* the dense ``(K, N_vc, …)`` data buffers
  (:class:`~repro.data.cohort.CohortBuffer`),

and :class:`~repro.federated.LocalUpdateExecutor` reuses one workspace for
as long as consecutive rounds are *shape-compatible* (same cohort size, same
model architecture).  Each round the executor rebinds the fresh
template model into the existing pools (:meth:`CohortWorkspace.adopt`),
resets — never reallocates — the optimiser state, and restacks only the data
slots whose selected client changed.  Every reuse path preserves the
sequential contract exactly: a rebound round is arithmetically
indistinguishable from a freshly built one, because sequential clients also
start every round from a factory-fresh model and optimiser.

Numerical safety valves: a structurally different template, a changed cohort
size, or an unregistered custom layer silently rebuilds the workspace
(counted in ``LocalUpdateExecutor.workspace_builds``); a ragged cohort
raises through to the executor's usual sequential fallback while leaving the
workspace intact for the next dense round.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional, Sequence

import numpy as np

from ..data.cohort import CohortBuffer
from ..nn.batched import BatchedAdam, BatchedModel, BatchedSGD, batched_cross_entropy
from ..nn.module import Module
from .client import FederatedClient, LocalTrainingConfig

__all__ = ["CohortWorkspace", "shared_pool", "train_cohort"]


def shared_pool(shape: Sequence[int], dtype: "str | np.dtype",
                ctx: "Optional[multiprocessing.context.BaseContext]" = None,
                ) -> np.ndarray:
    """Allocate a dense array on process-shared (fork-inheritable) memory.

    The multi-cohort scheduler keeps three kinds of state in pools allocated
    here: the round's flattened global parameters (parent writes, every
    worker reads), each shard's stacked ``(K_s, N_vc, …)`` cohort data
    (parent restacks changed slots, its worker trains from the same pages)
    and each shard's flat result pool (worker writes its trained parameter
    stack, parent merges zero-copy).  Worker processes forked *after* the
    allocation inherit the mapping, so per-round communication is a couple of
    array writes instead of pickling models and datasets through a pipe.

    Without *ctx* the pool comes from the default multiprocessing context;
    the returned array owns a reference to the underlying shared block, so it
    lives exactly as long as the array (and any forked views of it) does.

    Example
    -------
    >>> pool = shared_pool((2, 3), "float64")
    >>> pool[:] = 1.0
    >>> pool.shape
    (2, 3)
    """
    ctx = ctx or multiprocessing.get_context()
    resolved = np.dtype(dtype)
    n_bytes = int(np.prod(shape)) * resolved.itemsize
    raw = ctx.RawArray("b", max(n_bytes, 1))
    return np.frombuffer(raw, dtype=resolved, count=int(np.prod(shape))
                         ).reshape(tuple(shape))


def train_cohort(model: BatchedModel, optimizer: "BatchedAdam | BatchedSGD",
                 x: np.ndarray, y: np.ndarray,
                 rngs: "Sequence[np.random.Generator]",
                 config: LocalTrainingConfig,
                 rows: Optional[np.ndarray] = None) -> None:
    """Run every client's full local update as one batched tensor program.

    This is the body of a vectorized round, shared by the in-process
    executor and the parallel scheduler's workers: it replays the exact
    sequential schedule — per-client epoch permutations drawn from *rngs*
    (one generator per client, seeded exactly like the sequential
    :class:`repro.data.DataLoader`), same batch boundaries, same optimiser
    arithmetic — with the client loop folded into the leading axis of the
    ``(K, N_vc, …)`` arrays *x* / *y*.  The trained parameters land in
    *model*'s flat value pool; nothing is returned.

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

        Returns ``True`` after rebinding the factory-fresh *template* into
        the batched model (adopting its dropout RNG streams, exactly what
        every sequential client's fresh clone would use).  ``False`` means
        the round is shape-incompatible — different cohort size or model
        structure — and the executor must build a new workspace.
        """
        if num_clients != self.num_clients:
            return False
        if not self.model.rebind(template):
            return False
        self.rounds_bound += 1
        return True

    def stack(self, clients: Sequence[FederatedClient]) -> tuple[np.ndarray, np.ndarray]:
        """The round's ``(K, N_vc, …)`` data, restacking only changed slots."""
        return self.buffer.stack([client.cohort_slot() for client in clients])

    def optimizer_for(self, config: LocalTrainingConfig) -> "BatchedAdam | BatchedSGD":
        """The round's optimiser: state reset in place, never reallocated.

        Sequential clients construct a fresh optimiser every round, so the
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
