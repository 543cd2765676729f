"""Execution back-ends for per-round local client training.

The paper implements "the training process of participated clients as
parallel processes" on a GPU box.  In this reproduction local updates are
plain NumPy, so three execution modes are offered:

* ``"vectorized"`` (default) — the cohort back-end: the K selected clients'
  datasets are stacked into one ``(K, N_vc, …)`` tensor, the model's
  parameters are broadcast to a leading client axis, and every local
  optimisation step for all K clients runs as a handful of batched matmuls
  (:mod:`repro.nn.batched`).  Many small clients make the sequential Python
  loop — not BLAS — the bottleneck, which this mode removes;
* ``"sequential"`` — one client after another: the fallback for cohorts the
  vectorized mode cannot stack, the path every socket peer trains on
  (:meth:`FederatedClient.local_train`), and the reference the equivalence
  tests hold the other modes to;
* ``"parallel"`` — the multi-cohort back-end: the K clients are sharded
  across ``num_workers`` persistent worker processes, each running its shard
  as an independent vectorized block with bulk state crossing the process
  boundary through shared-memory pools
  (:class:`~repro.federated.scheduler.CohortScheduler`).  This is the
  fastest mode on multi-core boxes at large K, and bit-identical to
  ``"vectorized"``.

All modes produce matching results for the same inputs: the work items are
pure functions of (client dataset, incoming weights, config), and the
batched kernels mirror the sequential arithmetic slice-for-slice.  When a
cohort cannot be vectorized (a model that is no chain of the shipped layers,
ragged client dataset sizes) the vectorized mode falls back to the sequential
loop and records the reason in :attr:`LocalUpdateExecutor.last_fallback_reason`.

The vectorized back-end is *round-persistent*: the first vectorized round
builds a :class:`~repro.federated.workspace.CohortWorkspace` (flat parameter
pools, optimiser state, stacked data buffers) and every shape-compatible
later round reuses it — rebinding the fresh template into the existing
pools, resetting (not reallocating) the optimiser and restacking only the
data slots whose selected client changed.  Its pools are float64, so a
cohort round is bit-identical to sequential execution.

Note on result lifetime: vectorized rounds return zero-copy views into the
workspace pools (:class:`~repro.federated.aggregation.StackedClientStates`).
They are valid until the same executor runs its next vectorized round, which
reuses — and overwrites — those pools; aggregate (or copy) before re-running,
as the round loop naturally does.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..data.cohort import CohortShapeError
from ..nn.batched import UnvectorizableModelError
from ..nn.module import Module
from .aggregation import StackedClientStates
from .client import FederatedClient, LocalTrainingConfig
from .scheduler import CohortScheduler, SchedulerError
from .workspace import CohortWorkspace, train_cohort

__all__ = ["EXECUTOR_MODES", "LocalUpdateExecutor"]

StateDict = dict[str, np.ndarray]

EXECUTOR_MODES = ("sequential", "vectorized", "parallel")


def _run_local_update(client: FederatedClient, model: Module, global_state: StateDict,
                      config: LocalTrainingConfig, round_index: int) -> StateDict:
    """Load global weights into the fresh clone and train locally."""
    model.load_state_dict(global_state)
    return client.local_train(model, config, round_index=round_index)


class LocalUpdateExecutor:
    """Run the selected clients' local updates with the chosen back-end.

    ``num_workers`` / ``scheduler_timeout`` configure the ``"parallel"``
    mode's scheduler (worker-process count, and how long a round waits for
    a worker's reply before declaring it wedged — raise it for genuinely
    long rounds, ``None`` waits forever); they are ignored by every other
    mode.  Every mode trains in float64 and returns bit-identical states.

    Example
    -------
    >>> executor = LocalUpdateExecutor("vectorized")
    >>> executor.mode, executor.workspace_builds
    ('vectorized', 0)
    >>> # states = executor.run_round(clients, model_factory, global_state,
    >>> #                             LocalTrainingConfig())
    """

    def __init__(self, mode: str = "vectorized",
                 num_workers: Optional[int] = None,
                 scheduler_timeout: Optional[float] = 120.0):
        if mode not in EXECUTOR_MODES:
            raise ValueError(f"mode must be one of {EXECUTOR_MODES}")
        if scheduler_timeout is not None and scheduler_timeout <= 0:
            raise ValueError("scheduler_timeout must be positive (or None)")
        self.mode = mode
        self.num_workers = num_workers
        self.scheduler_timeout = scheduler_timeout
        #: why the most recent cohort round fell back (or None)
        self.last_fallback_reason: Optional[str] = None
        #: injected failures of the most recent round: cohort position -> cause
        #: ("dropout" mid-round, "straggler" past the collection deadline)
        self.last_round_failures: dict[int, str] = {}
        #: simulated round duration of the most recent round (the slowest
        #: surviving straggler's delay; 0.0 without injected stragglers)
        self.last_round_delay: float = 0.0
        #: the round-persistent cohort state, built lazily on the first
        #: vectorized round and reused while rounds stay shape-compatible
        self.workspace: Optional[CohortWorkspace] = None
        #: how many times a workspace had to be (re)built — 1 after any number
        #: of shape-compatible vectorized rounds
        self.workspace_builds = 0
        #: the parallel mode's process fleet, built lazily on the first round
        self.scheduler: Optional[CohortScheduler] = None

    def close(self) -> None:
        """Shut down the parallel scheduler's worker fleet (if any).

        Idempotent, and a no-op for every in-process mode.  The executor
        stays usable afterwards — the next parallel round simply rebuilds
        the fleet.

        Example
        -------
        >>> executor = LocalUpdateExecutor("parallel", num_workers=2)
        >>> executor.close()
        """
        if self.scheduler is not None:
            self.scheduler.shutdown()

    def run_round(self, clients: Sequence[FederatedClient],
                  model_factory: Callable[[], Module],
                  global_state: StateDict,
                  config: LocalTrainingConfig,
                  round_index: int = 0,
                  faults: "Optional[CohortFaults]" = None) -> list[StateDict]:
        """Train every client in *clients* from *global_state*; return their states.

        *faults* (a :class:`repro.scenarios.CohortFaults`, position-keyed)
        opts into per-client failure injection: clients marked as dropouts
        fail mid-round, and stragglers whose simulated delay exceeds the
        fault plan's collection deadline are dropped as ``"straggler"``.
        The returned list then covers only the *survivors*, in cohort order;
        :attr:`last_round_failures` maps the failed positions to their cause
        and :attr:`last_round_delay` reports the simulated round duration.
        The cohort back-ends train the full cohort and discard the failed
        rows (a real dropout wastes its local compute too — and keeping the
        cohort geometry stable preserves the round-persistent workspace),
        while the sequential back-end skips failed clients outright.
        Without *faults* (or with an empty plan) behaviour is bit-identical
        to before.

        Example
        -------
        >>> executor = LocalUpdateExecutor("sequential")
        >>> executor.run_round([], lambda: None, {}, LocalTrainingConfig())
        []
        """
        self.last_round_failures = {}
        self.last_round_delay = 0.0
        if not clients:
            return []
        failed: dict[int, str] = {}
        if faults is not None:
            failed = faults.resolve()
            failed = {p: c for p, c in failed.items() if p < len(clients)}
            self.last_round_failures = failed
            self.last_round_delay = faults.round_delay()
        if self.mode == "parallel":
            self.last_fallback_reason = None
            try:
                states = self._run_parallel(clients, model_factory, global_state,
                                            config, round_index)
                # the scheduler counts the whole cohort; align participation
                # bookkeeping with the other back-ends (failed != participated)
                for position in failed:
                    clients[position].rounds_participated -= 1
                return self._filter_survivors(states, failed)
            except (SchedulerError, UnvectorizableModelError,
                    CohortShapeError) as exc:
                self.last_fallback_reason = str(exc)
                try:
                    return self._run_vectorized(clients, model_factory,
                                                global_state, config, round_index,
                                                failed=failed)
                except (UnvectorizableModelError, CohortShapeError) as inner:
                    self.last_fallback_reason = (
                        f"{exc}; vectorized fallback failed: {inner}"
                    )
                    return self._run_sequential(clients, model_factory,
                                                global_state, config, round_index,
                                                failed=failed)
        if self.mode == "vectorized":
            self.last_fallback_reason = None
            try:
                return self._run_vectorized(clients, model_factory, global_state,
                                            config, round_index, failed=failed)
            except (UnvectorizableModelError, CohortShapeError) as exc:
                self.last_fallback_reason = str(exc)
                return self._run_sequential(clients, model_factory, global_state,
                                            config, round_index, failed=failed)
        return self._run_sequential(clients, model_factory, global_state,
                                    config, round_index, failed=failed)

    # -- back-ends -------------------------------------------------------------

    def _filter_survivors(self, states: "list[StateDict]",
                          failed: "dict[int, str]") -> "list[StateDict]":
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
                        round_index: int,
                        failed: "Optional[dict[int, str]]" = None) -> list[StateDict]:
        failed = failed or {}
        return [
            _run_local_update(client, model_factory(), global_state, config, round_index)
            for position, client in enumerate(clients)
            if position not in failed
        ]

    def _run_vectorized(self, clients: Sequence[FederatedClient],
                        model_factory: Callable[[], Module],
                        global_state: StateDict, config: LocalTrainingConfig,
                        round_index: int,
                        failed: "Optional[dict[int, str]]" = None,
                        ) -> StackedClientStates:
        """Train the whole cohort as one batched tensor program.

        Replays the exact sequential schedule — per-client epoch permutations
        from the same seeded RNG stream as :class:`repro.data.DataLoader`,
        same batch boundaries, same optimiser arithmetic — with the client
        loop folded into a leading tensor axis.  All round-scoped state lives
        in the persistent :class:`CohortWorkspace`; a shape-compatible round
        allocates no new pools.  Injected *failed* positions still train
        (every client's row is arithmetically independent, and a stable
        cohort size keeps the workspace warm) but their rows are discarded
        from the returned stack — so the survivors are bit-identical to a
        sequential round that never trained the failed clients at all.
        """
        template = model_factory()
        workspace = self.workspace
        if workspace is None or not workspace.adopt(template, len(clients)):
            # incompatible (or first) round: build fresh pools; may raise
            # UnvectorizableModelError straight into the sequential fallback
            workspace = CohortWorkspace(template, len(clients))
            self.workspace = workspace
            self.workspace_builds += 1
        # a ragged cohort raises CohortShapeError here; the workspace stays
        # intact (already-copied slots remain truthful) for the next dense round
        x, y = workspace.stack(clients)
        batched = workspace.model
        batched.load_state_dict_broadcast(global_state)
        optimizer = workspace.optimizer_for(config)
        # one RNG per client, seeded exactly like the sequential DataLoader
        rngs = [
            np.random.default_rng(
                None if client.seed is None else client.seed + 7919 * round_index
            )
            for client in clients
        ]
        train_cohort(batched, optimizer, x, y, rngs, config,
                     rows=workspace.client_rows)
        failed = failed or {}
        for position, client in enumerate(clients):
            if position not in failed:
                client.rounds_participated += 1
        return self._filter_survivors(
            StackedClientStates(batched.state_dicts(), batched.stacked_state()),
            failed)

    def _run_parallel(self, clients: Sequence[FederatedClient],
                      model_factory: Callable[[], Module],
                      global_state: StateDict, config: LocalTrainingConfig,
                      round_index: int) -> StackedClientStates:
        """Shard the cohort across the scheduler's persistent worker fleet.

        The scheduler is built lazily on the first parallel round and reused
        for as long as rounds keep the same geometry; every failure mode
        (crashed worker, unvectorizable model, ragged cohort) raises into
        :meth:`run_round`'s fallback chain.
        """
        if self.scheduler is None:
            self.scheduler = CohortScheduler(num_workers=self.num_workers,
                                             timeout=self.scheduler_timeout)
        return self.scheduler.run_round(clients, model_factory, global_state,
                                        config, round_index)
