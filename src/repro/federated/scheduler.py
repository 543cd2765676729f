"""Multi-cohort parallel scheduling: shard K across process-parallel blocks.

The vectorized back-end (:mod:`repro.nn.batched`) folds the cohort's client
loop into batched tensor ops, but one batched program still runs on one
core.  The paper trains "the participated clients as parallel processes" on
a multi-GPU box; this module is the CPU analogue: a :class:`CohortScheduler`
partitions the K selected clients into ``num_workers`` shards
(:func:`repro.core.config.partition_cohort`) and runs each shard as an
independent vectorized block inside a **persistent worker process**.

Design
------
* **Workers are warm.**  Each worker owns its own round-persistent
  :class:`~repro.federated.workspace.CohortWorkspace` (flat parameter pools,
  fused optimiser state) that survives across rounds exactly like the
  single-process vectorized runtime — the first round builds, later rounds
  rebind.
* **No per-round pickling.**  All bulk state crosses the process boundary
  through shared-memory pools (:func:`repro.federated.workspace.shared_pool`)
  allocated before the workers fork: the round's flattened global parameters
  (parent writes, workers read), each shard's stacked ``(K_s, N_vc, …)``
  cohort data (parent restacks only changed slots via an externally-backed
  :class:`~repro.data.cohort.CohortBuffer`), and each shard's flat result
  pool (worker writes its trained parameter stack, parent merges).  The
  per-round pipe message is just ``(round_index, config, client seeds)``.
* **Deterministic merge.**  Per-shard results scatter back into one
  ``(K, *shape)`` stack per parameter in the original selection order, so
  the mean-over-client-axis aggregation sees exactly the array the
  single-process vectorized mode would have produced.  Every batched kernel
  treats clients as independent slices, so the parallel results are
  **bit-identical** to ``executor_mode="vectorized"`` (the suite asserts it
  over multi-round runs with changing selections).
* **Fail towards correctness.**  A dead or wedged worker marks the scheduler
  broken and raises :class:`SchedulerError`;
  :class:`~repro.federated.LocalUpdateExecutor` catches it and transparently
  falls back to the in-process vectorized round (and from there, if needed,
  to the sequential reference).  Geometry changes (different K, data shape
  or model architecture) rebuild the worker fleet rather than guessing.
"""

from __future__ import annotations

import multiprocessing
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.config import partition_cohort, resolve_num_workers
from ..data.cohort import CohortBuffer, CohortShapeError
from ..nn.batched import BatchedModel
from ..nn.module import Module
from .aggregation import StackedClientStates
from .client import FederatedClient, LocalTrainingConfig
from .workspace import CohortWorkspace, shared_pool, train_cohort

__all__ = ["CohortScheduler", "SchedulerError"]

StateDict = dict[str, np.ndarray]


class SchedulerError(RuntimeError):
    """The parallel scheduler cannot serve this round (callers fall back).

    Raised for worker crashes/timeouts, platforms without the ``fork`` start
    method, and worker-reported round failures.  The executor treats it like
    an unvectorizable cohort: the round transparently re-runs on the
    in-process vectorized (then sequential) back-end and the reason is
    recorded in ``LocalUpdateExecutor.last_fallback_reason``.

    Example
    -------
    >>> try:
    ...     raise SchedulerError("worker 0 died")
    ... except SchedulerError as exc:
    ...     reason = str(exc)
    >>> reason
    'worker 0 died'
    """


def _template_fingerprint(module: Module) -> tuple:
    """A structural fingerprint of a template model beyond parameter shapes.

    Two factories can produce models with identical parameter layouts but
    different arithmetic (another dropout rate, another pooling stride, a
    different RNG seed); the worker fleet bakes its factory in at fork time,
    so such a change must rebuild the fleet rather than silently train the
    stale program.  The fingerprint walks the module tree collecting layer
    types and their scalar configuration attributes — everything
    :meth:`BatchedLayer.rebind` would inspect — while skipping parameters,
    arrays and RNG state (which legitimately differ between fresh templates).
    """
    entries: list = [type(module).__name__]
    for attr, value in sorted(module.__dict__.items()):
        if attr.startswith("_"):
            continue
        if isinstance(value, Module):
            entries.append((attr, _template_fingerprint(value)))
        elif isinstance(value, (list, tuple)):
            children = tuple(_template_fingerprint(item) for item in value
                             if isinstance(item, Module))
            if children:
                entries.append((attr, children))
            elif all(isinstance(item, (int, float, bool, str, type(None)))
                     for item in value):
                entries.append((attr, tuple(value)))
        elif isinstance(value, (int, float, bool, str, type(None))):
            entries.append((attr, value))
    return tuple(entries)


def _flat_layout(template: Module) -> "tuple[list[tuple[str, int, tuple[int, ...]]], int]":
    """Replicate ``BatchedModel._repack_flat``'s param-major pool layout.

    Returns ``([(name, offset, shape), ...], total)`` where *offset*/*total*
    count per-client scalars: a K-client pool stores parameter ``p`` at
    ``[K * offset_p, K * (offset_p + size_p))`` reshaped to ``(K, *shape)``.
    Parameters shared under two names occupy one segment (both names map to
    the same offset), matching the dedup in ``_repack_flat`` — whose flat
    pool packs the deduped segments first, so *total* here is the length of
    the pool's **used prefix** (the pool itself is over-allocated for tied
    parameters).
    """
    layout: list[tuple[str, int, tuple[int, ...]]] = []
    offsets: dict[int, int] = {}
    total = 0
    for name, param in template.named_parameters():
        if id(param) not in offsets:
            offsets[id(param)] = total
            total += param.value.size
        layout.append((name, offsets[id(param)], param.value.shape))
    return layout, total


def _worker_main(conn, model_factory: Callable[[], Module], shard_size: int,
                 global_pool: np.ndarray,
                 x: np.ndarray, y: np.ndarray, result: np.ndarray) -> None:
    """Worker body: serve vectorized shard rounds until told to stop.

    Runs in a forked child.  All arrays are views onto parent-allocated
    shared pools; the only pipe traffic is the per-round
    ``("round", round_index, config, seeds)`` request and a
    ``("done",)``/``("error", message)`` reply.
    """
    workspace: Optional[CohortWorkspace] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away: nothing left to serve
            return
        if message[0] == "stop":
            conn.close()
            return
        _, round_index, config, seeds = message
        try:
            template = model_factory()
            if workspace is None or not workspace.adopt(template, shard_size):
                workspace = CohortWorkspace(template, shard_size)
            batched = workspace.model
            layout, _ = _flat_layout(template)
            batched.load_state_dict_broadcast({
                name: global_pool[offset : offset + int(np.prod(shape))
                                  ].reshape(shape)
                for name, offset, shape in layout
            })
            optimizer = workspace.optimizer_for(config)
            rngs = [
                np.random.default_rng(
                    None if seed is None else seed + 7919 * round_index
                )
                for seed in seeds
            ]
            train_cohort(batched, optimizer, x, y, rngs, config,
                         rows=workspace.client_rows)
            # copy the used prefix only: for parameters shared under two
            # names the model's pool is over-allocated past the result pool
            result[:] = batched.flat_values[: result.size]
            conn.send(("done",))
        except Exception as exc:  # noqa: BLE001 - relayed to the parent verbatim
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


def _terminate_workers(workers, conns) -> None:
    """Best-effort fleet teardown (also registered as a GC finalizer)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
    for worker in workers:
        worker.join(timeout=2.0)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass


class CohortScheduler:
    """Run each round's cohort as ``num_workers`` process-parallel shards.

    The scheduler is round-persistent: the first round forks the worker
    fleet and allocates every shared pool; later rounds with the same
    *geometry* (cohort size, data shape, model architecture) reuse
    both, restacking only the data slots whose selected client changed.  A
    geometry change tears the fleet down and rebuilds it
    (:attr:`builds` counts fleet builds); a worker crash or timeout marks
    the scheduler :attr:`broken` so the executor permanently falls back.

    Used through ``executor_mode="parallel"`` rather than directly:

    Example
    -------
    >>> from repro.federated import LocalUpdateExecutor
    >>> executor = LocalUpdateExecutor("parallel", num_workers=2)
    >>> executor.scheduler is None  # built lazily on the first round
    True
    >>> executor.close()
    """

    def __init__(self, num_workers: Optional[int] = None,
                 timeout: Optional[float] = 120.0):
        self.num_workers = resolve_num_workers(num_workers)
        #: seconds to wait for a worker's round reply before declaring it
        #: wedged (None waits forever — only sensible in debuggers)
        self.timeout = timeout
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SchedulerError(
                "the parallel scheduler needs the 'fork' start method (its "
                "shared pools and model factories are fork-inherited); "
                "unavailable on this platform"
            )
        self._ctx = multiprocessing.get_context("fork")
        self._workers: list = []
        self._conns: list = []
        self._shards: list[np.ndarray] = []
        self._buffers: list[CohortBuffer] = []
        self._results: list[np.ndarray] = []
        self._global: Optional[np.ndarray] = None
        self._layout: list[tuple[str, int, tuple[int, ...]]] = []
        self._stacked: StateDict = {}
        self._per_client: list[StateDict] = []
        self._geometry: Optional[tuple] = None
        self._finalizer: Optional[weakref.finalize] = None
        #: how many times the worker fleet was (re)built
        self.builds = 0
        #: rounds successfully served by this scheduler
        self.rounds_dispatched = 0
        #: why the scheduler is permanently out of service (or None)
        self.broken: Optional[str] = None

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker and release the fleet (pools stay GC-managed).

        Idempotent; the scheduler can build a fresh fleet afterwards unless
        it is :attr:`broken`.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _terminate_workers(self._workers, self._conns)
        self._workers = []
        self._conns = []
        self._shards = []
        self._buffers = []
        self._results = []
        self._global = None
        self._stacked = {}
        self._per_client = []
        self._geometry = None

    def _mark_broken(self, reason: str) -> "SchedulerError":
        self.broken = reason
        self.shutdown()
        return SchedulerError(reason)

    def _check_rectangular(self, datasets) -> tuple:
        reference = np.asarray(datasets[0].x).shape
        for k, ds in enumerate(datasets[1:], start=1):
            if np.asarray(ds.x).shape != reference:
                raise CohortShapeError(
                    f"client {k} has data shape {np.asarray(ds.x).shape}, "
                    f"expected {reference}; ragged cohorts cannot be sharded"
                )
        return reference

    def _build(self, template: Module, num_clients: int, sample_shape: tuple,
               y_dtype: np.dtype, model_factory: Callable[[], Module]) -> None:
        """Fork a fresh worker fleet over freshly allocated shared pools."""
        self.shutdown()
        # cheap parent-side vectorization pre-check: refuse unregistered
        # models/layers here, before any process is forked
        BatchedModel(template, 1)
        self._layout, per_client = _flat_layout(template)
        try:
            self._shards = partition_cohort(num_clients, self.num_workers)
            self._global = shared_pool((per_client,), np.float64, self._ctx)
            for indices in self._shards:
                shard_size = len(indices)
                x = shared_pool((shard_size,) + sample_shape, np.float64,
                                self._ctx)
                y = shared_pool((shard_size,) + sample_shape[:1], y_dtype,
                                self._ctx)
                result = shared_pool((shard_size * per_client,), np.float64,
                                     self._ctx)
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                worker = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, model_factory, shard_size,
                          self._global, x, y, result),
                    daemon=True,
                    name=f"cohort-shard-{len(self._conns)}",
                )
                worker.start()
                child_conn.close()
                self._workers.append(worker)
                self._conns.append(parent_conn)
                self._buffers.append(
                    CohortBuffer(shard_size, arrays=(x, y)))
                self._results.append(result)
        except OSError as exc:
            # fork limits, /dev/shm exhaustion, pipe limits: stop whatever
            # part of the fleet already started and let the executor fall
            # back instead of crashing the round
            self.shutdown()
            raise SchedulerError(f"worker fleet build failed: {exc}") from exc
        # persistent merge stacks: geometry-stable, so allocated once here
        # and only copied into per round (their views are what run_round
        # returns — valid until the next round, like the vectorized pools)
        self._stacked = {
            name: np.empty((num_clients,) + shape)
            for name, _, shape in self._layout
        }
        self._per_client = [
            {name: self._stacked[name][k] for name, _, _ in self._layout}
            for k in range(num_clients)
        ]
        # GC safety net: a dropped scheduler (test teardown, interpreter
        # exit) still stops its fleet even when close() was never called
        self._finalizer = weakref.finalize(self, _terminate_workers,
                                           self._workers, self._conns)
        self.builds += 1

    # -- the round -------------------------------------------------------------

    def run_round(self, clients: Sequence[FederatedClient],
                  model_factory: Callable[[], Module],
                  global_state: StateDict, config: LocalTrainingConfig,
                  round_index: int = 0) -> StackedClientStates:
        """Train *clients* from *global_state* across the worker shards.

        Returns the same :class:`StackedClientStates` the vectorized
        back-end produces (per-client dicts as views into one ``(K, *shape)``
        stack per parameter, clients in selection order).  Raises
        :class:`SchedulerError` / :class:`~repro.data.cohort.CohortShapeError`
        / :class:`~repro.nn.batched.UnvectorizableModelError` when the round
        cannot be served; callers fall back to the in-process back-ends.

        Example
        -------
        >>> # via the executor, which owns fallback handling:
        >>> from repro.federated import LocalUpdateExecutor
        >>> executor = LocalUpdateExecutor("parallel", num_workers=2)
        >>> # states = executor.run_round(clients, factory, state, config)
        >>> executor.close()
        """
        if self.broken:
            raise SchedulerError(self.broken)
        slots = [client.cohort_slot() for client in clients]
        datasets = [ds for _, ds in slots]
        sample_shape = self._check_rectangular(datasets)
        y_dtype = np.asarray(datasets[0].y).dtype
        template = model_factory()
        geometry = (
            len(clients), sample_shape, y_dtype.str,
            tuple((name, offset, shape) for name, offset, shape
                  in _flat_layout(template)[0]),
            # layer types + scalar config (dropout rate, strides, seeds, …):
            # a factory change the parameter layout cannot see must still
            # re-fork the fleet, whose workers captured the old factory
            _template_fingerprint(template),
        )
        if geometry != self._geometry:
            self._build(template, len(clients), sample_shape, y_dtype,
                        model_factory)
            self._geometry = geometry

        # 1. bring the shared pools up to date: only changed data slots copy,
        #    and the global parameters flatten straight into the shared block
        for indices, buffer in zip(self._shards, self._buffers):
            buffer.stack([slots[j] for j in indices])
        for name, offset, shape in self._layout:
            size = int(np.prod(shape))
            np.copyto(
                self._global[offset : offset + size].reshape(shape),
                np.asarray(global_state[name], dtype=np.float64),
            )

        # 2. dispatch the round, then drain every reply (keeping the pipe
        #    protocol in lock-step even when one shard reports an error)
        for shard_index, (conn, indices) in enumerate(zip(self._conns,
                                                          self._shards)):
            try:
                conn.send(("round", round_index, config,
                           [clients[j].seed for j in indices]))
            except (OSError, ValueError):
                raise self._mark_broken(
                    f"worker {shard_index} is gone (send failed, exitcode="
                    f"{self._workers[shard_index].exitcode})"
                ) from None
        errors: list[str] = []
        for shard_index, (conn, worker) in enumerate(zip(self._conns,
                                                         self._workers)):
            try:
                if self.timeout is not None and not conn.poll(self.timeout):
                    raise self._mark_broken(
                        f"worker {shard_index} did not answer within "
                        f"{self.timeout:.0f}s"
                    )
                reply = conn.recv()
            except (EOFError, OSError):
                raise self._mark_broken(
                    f"worker {shard_index} died mid-round "
                    f"(exitcode={worker.exitcode})"
                ) from None
            if reply[0] == "error":
                errors.append(f"shard {shard_index}: {reply[1]}")
        if errors:
            raise SchedulerError("; ".join(errors))

        # 3. merge: scatter per-shard result pools back into the persistent
        #    (K, *shape) stack per parameter, in the original selection
        #    order — exactly the array the single-process vectorized round
        #    would have built (and, like its pools, overwritten next round)
        for name, offset, shape in self._layout:
            size = int(np.prod(shape))
            stack = self._stacked[name]
            for indices, result in zip(self._shards, self._results):
                shard_size = len(indices)
                stack[indices] = result[
                    shard_size * offset : shard_size * (offset + size)
                ].reshape((shard_size,) + shape)
        for client in clients:
            client.rounds_participated += 1
        self.rounds_dispatched += 1
        return StackedClientStates(self._per_client, self._stacked)
