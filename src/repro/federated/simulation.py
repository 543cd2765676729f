"""End-to-end federated training simulation.

:class:`FederatedSimulation` wires together the substrates: a client
partition (who holds what), a synthetic data generator (what the samples look
like), the NumPy model stack, a pluggable client-selection strategy and the
FedVC-style server.  One instance reproduces one curve of Figures 2, 6 or 8:
construct it with a selector (random / greedy / Dubhe), call :meth:`run`, and
read the accuracy series from the returned :class:`TrainingHistory`.

The selector is duck-typed: anything with ``select(round_index)`` returning a
sequence of client indices works, so the Dubhe machinery in
:mod:`repro.core` plugs in without this module importing it (the paper calls
Dubhe "pluggable"; the code structure mirrors that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from ..core.config import TransportConfig, resolve_run_mode
from ..data.cohort import DatasetCache
from ..data.dataset import ArrayDataset
from ..data.distributions import emd, uniform_distribution
from ..data.partition import ClientPartition
from ..data.synthetic import SyntheticImageGenerator
from ..nn.module import Module
from ..scenarios.engine import FaultInjector
from ..scenarios.spec import ScenarioSpec
from ..transport.base import build_transport
from .client import FederatedClient, LocalTrainingConfig
from .executor import EXECUTOR_MODES, LocalUpdateExecutor
from .history import RoundRecord, TrainingHistory
from .server import FederatedServer

__all__ = ["ClientSelectorProtocol", "DATASET_CACHE_SIZE", "FederatedConfig",
           "FederatedSimulation"]

#: How many materialised client datasets a simulation keeps resident.
#: Client data is regenerated bit-identically from a per-client seed, so
#: the size trades memory for generation time and never changes a result.
DATASET_CACHE_SIZE = 1024


class ClientSelectorProtocol(Protocol):
    """Anything that can pick the participating clients of a round."""

    def select(self, round_index: int) -> Sequence[int]:  # pragma: no cover - protocol
        """Return the indices of the clients participating in this round."""
        ...


@dataclass(frozen=True)
class FederatedConfig:
    """The one flat description of a federated run.

    Every knob has exactly one spelling here; the socket layer's knobs are
    the single nested group, ``transport``
    (:class:`~repro.core.config.TransportConfig`).

    ``executor_mode`` selects the local-update back-end
    (:data:`repro.federated.EXECUTOR_MODES`: ``"vectorized"`` by default,
    which trains a cohort it cannot stack one client at a time, as
    ``"sequential"`` always does; see
    :class:`repro.federated.LocalUpdateExecutor`).  Both back-ends train in
    float64, so they produce bit-identical rounds.  Materialised client
    datasets live in one shared LRU pool of
    :data:`DATASET_CACHE_SIZE` entries.  ``scenario`` opts the run
    into fault injection (:class:`repro.scenarios.ScenarioSpec`): churn,
    availability, stragglers and dropouts, with partial-round
    aggregation below the spec's participation floor.  ``None`` (default)
    and the empty ``ScenarioSpec()`` both leave the run bit-identical to a
    fault-free one.

    ``ledger_path`` opts the run into the run ledger
    (:mod:`repro.ledger`): every completed round is durably committed to
    that SQLite file.  ``run_mode`` picks the ledger behaviour
    (:data:`repro.core.config.RUN_MODES`): ``"live"`` records a new run,
    ``"resume"`` continues a recorded run from its last committed
    checkpoint, ``"verify"`` re-executes a recorded run and asserts every
    round matches bit-for-bit.  ``replay_source_run_id`` names which
    recorded run to resume/verify (default: the ledger's most recent);
    ``run_name`` labels a freshly recorded run.

    Example
    -------
    >>> config = FederatedConfig(rounds=5, executor_mode="sequential", seed=0)
    >>> config.executor_mode
    'sequential'
    """

    rounds: int = 20
    eval_every: int = 1
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    executor_mode: str = "vectorized"
    seed: Optional[int] = None
    scenario: Optional[ScenarioSpec] = None
    run_mode: str = "live"
    ledger_path: Optional[str] = None
    replay_source_run_id: Optional[str] = None
    run_name: Optional[str] = None
    transport: Optional[TransportConfig] = None

    def __post_init__(self) -> None:
        if self.executor_mode not in EXECUTOR_MODES:
            raise ValueError(
                f"executor mode must be one of {EXECUTOR_MODES}, got "
                f"{self.executor_mode!r}"
            )
        if self.transport is None:
            object.__setattr__(self, "transport", TransportConfig())
        elif not isinstance(self.transport, TransportConfig):
            raise TypeError("transport must be a TransportConfig (or None)")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be positive")
        if self.scenario is not None and not isinstance(self.scenario, ScenarioSpec):
            raise TypeError("scenario must be a ScenarioSpec (or None)")
        if (self.scenario is not None and self.scenario.network is not None
                and not self.scenario.network.is_empty()
                and self.transport.kind != "socket"):
            raise ValueError(
                "scenario.network injects faults on real sockets and "
                "requires transport kind='socket'"
            )
        resolve_run_mode(self.run_mode)
        if self.run_mode != "live" and self.ledger_path is None:
            raise ValueError(
                f"run_mode={self.run_mode!r} replays a recorded run and "
                "requires ledger_path"
            )
        if self.replay_source_run_id is not None and self.run_mode == "live":
            raise ValueError(
                "replay_source_run_id names a recorded run to resume or "
                "verify; it is invalid with run_mode='live'"
            )


class FederatedSimulation:
    """Simulate federated training with a pluggable client-selection strategy.

    The engine of every run: construct it directly from the federation's
    components and a :class:`FederatedConfig`, or let
    :class:`repro.api.Session` build it for scenario, ledger and recipe runs.

    Example
    -------
    >>> from repro import (FederatedConfig, FederatedSimulation,
    ...                    quick_federation, make_uniform_test_set)
    >>> from repro.core import RandomSelector
    >>> from repro.nn.models import MLP
    >>> partition, generator = quick_federation(n_clients=20, seed=0)
    >>> sim = FederatedSimulation(
    ...     partition=partition, generator=generator,
    ...     model_factory=lambda: MLP(64, 10, hidden=(16,), seed=7),
    ...     selector=RandomSelector(partition.client_distributions(), 4, seed=0),
    ...     test_set=make_uniform_test_set(generator, samples_per_class=2, seed=1),
    ...     config=FederatedConfig(rounds=2, executor_mode="vectorized", seed=0),
    ... )
    >>> history = sim.run()
    >>> len(history)
    2
    """

    def __init__(self, partition: ClientPartition, generator: SyntheticImageGenerator,
                 model_factory: Callable[[], Module], selector: ClientSelectorProtocol,
                 test_set: ArrayDataset, config: Optional[FederatedConfig] = None,
                 recipe=None):
        if partition.num_classes != generator.num_classes:
            raise ValueError("partition and generator disagree on the number of classes")
        self.partition = partition
        self.generator = generator
        self.selector = selector
        self.test_set = test_set
        self.config = config or FederatedConfig()
        self.server = FederatedServer(model_factory)
        config = self.config
        scenario = config.scenario
        #: the in-process LocalUpdateExecutor when there is one (None over
        #: sockets); workspace telemetry lives here
        self.executor: Optional[LocalUpdateExecutor] = None
        if config.transport.kind == "inprocess":
            self.executor = LocalUpdateExecutor(mode=config.executor_mode)
        #: the seam every round speaks to: the executor itself in process,
        #: or sockets (a scenario's NetworkSpec interposes the chaos proxy,
        #: keyed by the scenario seed so network faults replay
        #: deterministically)
        self.transport = build_transport(
            config.transport, self.executor,
            network=None if scenario is None else scenario.network,
            chaos_seed=0 if scenario is None else scenario.seed,
        )
        #: the shared LRU pool of materialised client datasets
        self.dataset_cache = DatasetCache(DATASET_CACHE_SIZE)
        self._uniform = uniform_distribution(partition.num_classes)
        self._clients: dict[int, FederatedClient] = {}
        self._rng = np.random.default_rng(self.config.seed)
        self.history = TrainingHistory()
        #: the scenario's fault engine (None = fault-free run); its RNG
        #: streams are keyed by (scenario seed, round, client), independent
        #: of every other generator in the simulation
        self.injector: Optional[FaultInjector] = (
            None if self.config.scenario is None
            else FaultInjector(self.config.scenario)
        )
        #: the run-ledger attachment (None unless config.ledger_path is set);
        #: created last so resume/verify fast-forward sees a fully built
        #: simulation.  *recipe* (a repro.ledger.RunRecipe) is recorded next
        #: to the run so a cold process can rebuild these components.
        self.ledger_session = None
        if self.config.ledger_path is not None:
            from ..ledger.modes import LedgerSession

            self.ledger_session = LedgerSession(self, recipe=recipe)

    # -- client materialisation ----------------------------------------------------

    def client(self, index: int) -> FederatedClient:
        """The :class:`FederatedClient` for partition row *index* (cached, lazy data)."""
        if index not in self._clients:
            counts = self.partition.client_class_counts[index]
            data_seed = (0 if self.config.seed is None else self.config.seed) + 100_003 * index

            def factory(counts=counts, data_seed=data_seed) -> ArrayDataset:
                return self.generator.generate(counts, rng=np.random.default_rng(data_seed))

            self._clients[index] = FederatedClient(
                client_id=index,
                num_classes=self.partition.num_classes,
                dataset_factory=factory,
                seed=data_seed,
                cache=self.dataset_cache,
            )
        return self._clients[index]

    # -- round loop -------------------------------------------------------------------

    def run_round(self, round_index: int) -> RoundRecord:
        """Run one complete round: select, train locally, aggregate, evaluate.

        Under a scenario (:attr:`FederatedConfig.scenario`) the injector's
        :class:`~repro.scenarios.RoundPlan` says who of the selected cohort
        trains (availability and churn strike before any compute), who
        fails and why, and the simulated round delay; the dropouts and
        stragglers past the deadline are handed to the transport as the
        cohort positions to leave out.
        Only the survivors are aggregated — or aggregation is skipped when
        they fall below the scenario's ``min_participation`` floor.  The
        resulting :class:`~repro.federated.history.RoundRecord` carries the
        full planned-vs-actual story, built from the plan and from the
        transport's :class:`~repro.transport.base.RoundOutcome`: any failure
        the transport observed itself (a socket peer missing the deadline or
        vanishing), its fallback reason, undecodable frames and disconnects.
        """
        selected = list(self.selector.select(round_index))
        if len(selected) == 0:
            raise RuntimeError(f"selector returned no clients at round {round_index}")
        population = self.partition.selection_population(selected)
        bias = emd(population, self._uniform)

        trainable = selected
        failures: dict[int, str] = {}
        round_delay = 0.0
        if self.injector is not None:
            plan = self.injector.plan_round(round_index, selected)
            trainable = list(plan.trainable)
            failures = dict(plan.failures)
            round_delay = plan.round_delay

        probabilities = getattr(self.selector, "probabilities", None)
        if probabilities is not None:
            self.transport.broadcast_probabilities(
                round_index, np.asarray(probabilities, dtype=float))

        clients = [self.client(k) for k in trainable]
        # read-only views: every executor back-end copies the state on load,
        # so one shared global state serves all K workers without K deep copies
        global_state = self.server.global_state(copy=False)
        outcome = self.transport.run_round(
            clients, self.server.new_client_model, global_state, self.config.local,
            round_index=round_index,
            failed={position for position, k in enumerate(trainable)
                    if k in failures},
        )

        actual_clients: Optional[tuple[int, ...]] = None
        actual_bias: Optional[float] = None
        skipped = False
        if self.injector is None and not outcome.failures:
            self.server.aggregate(outcome.states)
        else:
            for position, cause in outcome.failures.items():
                failures[trainable[position]] = cause
            actual_clients = tuple(k for k in trainable if k not in failures)
            # the scenario owns the participation floor; without one, real
            # transport failures (socket stragglers/disconnects) leave any
            # non-empty survivor set to aggregate
            floor = (self.config.scenario.min_participation
                     if self.config.scenario is not None else 0.0)
            skipped = self.server.aggregate(
                outcome.states,
                expected_count=len(selected),
                min_participation=floor,
            ) is None
            actual_bias = (
                float("nan") if not actual_clients
                else emd(self.partition.selection_population(actual_clients),
                         self._uniform)
            )

        accuracy: Optional[float] = None
        if round_index % self.config.eval_every == 0:
            accuracy = self.server.evaluate(self.test_set)["accuracy"]

        record = RoundRecord(
            round_index=round_index,
            selected_clients=tuple(selected),
            population_distribution=population,
            population_bias=bias,
            test_accuracy=accuracy,
            actual_clients=actual_clients,
            failures=failures,
            fallback_reason=outcome.fallback_reason,
            aggregation_skipped=skipped,
            actual_population_bias=actual_bias,
            round_delay=round_delay,
            decode_failures=outcome.decode_failures,
            disconnects=outcome.disconnects,
        )
        self.transport.on_round_complete(record)
        self.history.append(record)
        if self.ledger_session is not None:
            self.ledger_session.on_round(record, self.server.global_state())
        return record

    def run(self, rounds: Optional[int] = None, progress: Optional[Callable[[RoundRecord], None]] = None,
            ) -> TrainingHistory:
        """Run the full federated training loop and return the history.

        With a ledger attached the loop honours the session's bounds:
        RESUME starts at the first uncommitted round (already-committed
        rounds are restored to the history during fast-forward), VERIFY
        re-executes exactly the committed rounds.  The session is notified
        when the loop completes (marking the run finished once it has
        committed ``config.rounds`` rounds, or raising the verification
        report).
        """
        total = rounds if rounds is not None else self.config.rounds
        if total < 1:
            raise ValueError("rounds must be positive")
        start = 0
        if self.ledger_session is not None:
            start, total = self.ledger_session.run_bounds(total)
        for t in range(start, total):
            record = self.run_round(t)
            if progress is not None:
                progress(record)
        if self.ledger_session is not None:
            self.ledger_session.on_run_complete(self.history)
        return self.history

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release round-persistent runtime state (idempotent).

        Closes the transport (the asyncio socket server, cancelling any
        round still pending on the loop; a no-op in process), drops the server's cached batched
        evaluator and releases the attached ledger session's SQLite
        connection (committed rounds are already durable).  The three
        teardowns are chained so a failure in one never leaks the others'
        resources, and every one is idempotent — closing a transport- or
        ledger-wrapped simulation twice, or while its server loop still
        holds a pending round, is safe.  The simulation stays usable — the
        next round simply rebuilds what it needs.  Simulations also work
        as context managers: ``with FederatedSimulation(...) as sim: ...``.
        """
        try:
            self.transport.close()
        finally:
            try:
                self.server.close()
            finally:
                if self.ledger_session is not None:
                    self.ledger_session.close()

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
