"""Execution back-ends for per-round local client training.

The paper implements "the training process of participated clients as
parallel processes" on a GPU box.  In this reproduction every local update
runs the one training step, :func:`~repro.federated.workspace.train_cohort`
(:mod:`repro.nn.batched`), and the two modes differ only in how many
clients each call trains:

* ``"vectorized"`` (default) — the whole cohort at once: the K selected
  clients' datasets are stacked into one ``(K, N_vc, …)`` tensor, the
  model's parameters are broadcast to a leading client axis, and every
  local optimisation step for all K clients runs as a handful of batched
  matmuls.  Many small clients make a per-client Python loop — not BLAS —
  the bottleneck, which this mode removes;
* ``"sequential"`` — one client at a time, each a K = 1 cohort
  (:meth:`FederatedClient.local_train`, the path every socket peer trains
  on).

Both modes produce bit-identical results for the same inputs: the work items
are pure functions of (client dataset, incoming weights, config), and every
client occupies an independent slice of the batched kernels.  Before the
cohort back-end runs, :meth:`LocalUpdateExecutor.run_round` checks that the
cohort stacks densely (:func:`~repro.data.cohort.cohort_sample_shape`); a
ragged cohort is trained one client at a time instead, and the reason is
the ``fallback_reason`` of the round's
:class:`~repro.transport.base.RoundOutcome`.  A model that is no chain of
the shipped layers raises :class:`~repro.nn.batched.UnvectorizableModelError`
in every mode.

The executor is the in-process :class:`~repro.transport.base.Transport`: a
simulation without sockets speaks to it directly.  It only trains and
returns states; which clients fail, and why, is decided by the simulation's
fault plan, which hands it the failed cohort positions to leave out.

The vectorized back-end is *round-persistent*: the first vectorized round
builds a :class:`~repro.federated.workspace.CohortWorkspace` (flat parameter
pools, optimiser state, stacked data buffers) and every later round with the
same cohort size and the same :func:`~repro.nn.batched.program_signature`
reuses it — loading the round's global state into the existing pools,
resetting (not reallocating) the optimiser and restacking only the data
slots whose selected client changed.  Its pools are float64, so a
cohort round is bit-identical to training its clients one at a time.

Note on result lifetime: vectorized rounds return zero-copy views into the
workspace pools (:class:`~repro.federated.aggregation.StackedClientStates`).
They are valid until the same executor runs its next vectorized round, which
reuses — and overwrites — those pools; aggregate (or copy) before re-running,
as the round loop naturally does.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Sequence

import numpy as np

from ..data.cohort import CohortShapeError, cohort_sample_shape
from ..nn.module import Module
from ..transport.base import RoundOutcome, Transport
from .aggregation import StackedClientStates
from .client import FederatedClient, LocalTrainingConfig
from .workspace import CohortWorkspace, train_cohort

__all__ = ["EXECUTOR_MODES", "LocalUpdateExecutor"]

StateDict = dict[str, np.ndarray]

EXECUTOR_MODES = ("sequential", "vectorized")


class LocalUpdateExecutor(Transport):
    """Run the selected clients' local updates with the chosen back-end.

    Both modes train in float64 and return bit-identical states.

    As a :class:`~repro.transport.base.Transport` it observes no failures of
    its own (an outcome's ``failures`` stay empty), and the probability
    broadcast and round-complete hooks are no-ops: every role shares memory
    in process.

    Example
    -------
    >>> executor = LocalUpdateExecutor("vectorized")
    >>> executor.mode, executor.workspace_builds
    ('vectorized', 0)
    >>> # outcome = executor.run_round(clients, model_factory, global_state,
    >>> #                              LocalTrainingConfig())
    """

    def __init__(self, mode: str = "vectorized"):
        if mode not in EXECUTOR_MODES:
            raise ValueError(f"mode must be one of {EXECUTOR_MODES}")
        self.mode = mode
        #: the round-persistent cohort state, built lazily on the first
        #: vectorized round and reused while rounds stay shape-compatible
        self.workspace: Optional[CohortWorkspace] = None
        #: how many times a workspace had to be (re)built — 1 after any number
        #: of shape-compatible vectorized rounds
        self.workspace_builds = 0

    def run_round(self, clients: Sequence[FederatedClient],
                  model_factory: Callable[[], Module],
                  global_state: StateDict,
                  config: LocalTrainingConfig,
                  round_index: int = 0,
                  failed: Collection[int] = ()) -> RoundOutcome:
        """Train every client in *clients* from *global_state*.

        *failed* holds the cohort positions the round's fault plan has
        already failed (dropouts, stragglers past the deadline).  The
        outcome's states cover only the other positions, in cohort order;
        its ``fallback_reason`` says why a ragged cohort was trained one
        client at a time (``None`` on the cohort back-end).  The
        cohort back-end still trains the failed rows and then drops them (a
        real dropout wastes its local compute too, and a stable cohort size
        keeps the round-persistent workspace warm); the one-client-at-a-time
        path skips them outright.  Either way the survivors are bit-identical
        to a round that never selected the failed clients.

        Example
        -------
        >>> executor = LocalUpdateExecutor("sequential")
        >>> executor.run_round([], lambda: None, {}, LocalTrainingConfig()).states
        []
        """
        if not clients:
            return RoundOutcome(states=[])
        args = (clients, model_factory, global_state, config, round_index)
        if self.mode == "sequential":
            return RoundOutcome(states=self._run_sequential(*args, failed))
        # one slot per client per round: the DatasetCache counts each once
        slots = [client.cohort_slot() for client in clients]
        try:
            cohort_sample_shape([dataset for _, dataset in slots])
        except CohortShapeError as exc:
            # checked before any pool is built or adopted
            return RoundOutcome(
                states=self._run_sequential(*args, failed, slots),
                fallback_reason=str(exc))
        return RoundOutcome(states=self._filter_survivors(
            self._run_vectorized(slots, *args), failed))

    # -- back-ends -------------------------------------------------------------

    def _filter_survivors(self, states: "list[StateDict]",
                          failed: Collection[int]) -> "list[StateDict]":
        """Drop the failed positions from a full-cohort result.

        The no-fault case returns *states* untouched (no copies), preserving
        the zero-fault identity; with faults, stacked results are re-stacked
        over the survivor rows so aggregation's mean-over-client-axis fast
        path covers exactly the survivors.
        """
        if not failed:
            return states
        keep = [i for i in range(len(states)) if i not in failed]
        if isinstance(states, StackedClientStates):
            idx = np.asarray(keep, dtype=int)
            stacked = {name: value[idx] for name, value in states.stacked.items()}
            per_client = [{name: stacked[name][j] for name in stacked}
                          for j in range(len(keep))]
            return StackedClientStates(per_client, stacked)
        return [states[i] for i in keep]

    def _run_sequential(self, clients: Sequence[FederatedClient],
                        model_factory: Callable[[], Module],
                        global_state: StateDict, config: LocalTrainingConfig,
                        round_index: int, failed: Collection[int],
                        slots: Optional[Sequence[tuple]] = None) -> list[StateDict]:
        """Train the clients not in *failed* one at a time, each a K = 1 cohort.

        A ragged cohort round hands over the *slots* it already took, so
        each client fetches its data once per round.
        """
        states = []
        for position, client in enumerate(clients):
            if position in failed:
                continue
            model = model_factory()
            model.load_state_dict(global_state)
            if slots is None:
                states.append(client.local_train(model, config, round_index))
            else:
                states.append(client._train_slot(slots[position], model, config,
                                                 round_index))
        return states

    def _run_vectorized(self, slots: Sequence[tuple],
                        clients: Sequence[FederatedClient],
                        model_factory: Callable[[], Module],
                        global_state: StateDict, config: LocalTrainingConfig,
                        round_index: int) -> StackedClientStates:
        """Train the whole (rectangular) cohort as one batched tensor program.

        Each client's epoch permutations come from its own generator, seeded
        from its seed and the round exactly as
        :meth:`FederatedClient.local_train` seeds a one-client cohort.  All
        round-scoped state lives in the persistent :class:`CohortWorkspace`;
        a shape-compatible round allocates no new pools.  *slots* are the
        clients' cohort slots, in order.
        """
        template = model_factory()
        workspace = self.workspace
        if workspace is None or not workspace.adopt(template, len(clients)):
            # incompatible (or first) round: build fresh pools (a model that
            # is no layer chain raises UnvectorizableModelError, in adopt or
            # here)
            workspace = CohortWorkspace(template, len(clients))
            self.workspace = workspace
            self.workspace_builds += 1
        x, y = workspace.buffer.stack(slots)
        batched = workspace.model
        batched.load_state_dict_broadcast(global_state)
        optimizer = workspace.optimizer_for(config)
        # one RNG per client, seeded exactly like FederatedClient.local_train
        rngs = [
            np.random.default_rng(
                None if client.seed is None else client.seed + 7919 * round_index
            )
            for client in clients
        ]
        train_cohort(batched, optimizer, x, y, rngs, config,
                     rows=workspace.client_rows)
        return StackedClientStates(batched.state_dicts(), batched.stacked_state())
