"""The seeded fault injector that turns a scenario spec into round plans.

:class:`FaultInjector` is the single source of randomness for everything a
:class:`~repro.scenarios.spec.ScenarioSpec` injects.  Determinism is the
contract: every per-client decision (offline, dropout, straggle, delay) is
drawn from a fresh ``numpy`` generator seeded with
``(spec.seed, round_index, client_id)``, so a fault is a pure function of
the scenario, the round and the client — independent of cohort composition,
executor back-end, iteration order, and of any other RNG in the system (the
selector's and the training streams are untouched, which is what preserves
the zero-fault identity).

The injector produces a :class:`RoundPlan` per round: who of the planned
cohort is even reachable (availability/churn — *pre-round* faults, no
compute spent), who will drop out or straggle mid-round, and the simulated
straggler delays.  The executor receives the mid-round part as
:class:`CohortFaults` (positions within the trainable cohort) and applies
the straggler deadline itself, so "partial cohort" is an execution-layer
concern, exactly where a real collection timeout lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .spec import ScenarioSpec

__all__ = [
    "FAILURE_CAUSES",
    "ClientFault",
    "CohortFaults",
    "FaultInjector",
    "RoundPlan",
]

#: Every cause a client can fail with, in the order they are decided.
#: ``not_joined``/``left``/``offline`` strike before training (no compute
#: spent); ``dropout``/``straggler`` strike mid-round (the client's local
#: compute is wasted, as in a real deployment).
FAILURE_CAUSES = ("not_joined", "left", "offline", "dropout", "straggler")


@dataclass(frozen=True)
class ClientFault:
    """One injected fault: which client failed, why, and (if straggling) how late.

    Example
    -------
    >>> fault = ClientFault(client_id=3, cause="dropout")
    >>> (fault.client_id, fault.cause, fault.delay)
    (3, 'dropout', None)
    """

    client_id: int
    cause: str
    delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cause not in FAILURE_CAUSES:
            raise ValueError(f"cause must be one of {FAILURE_CAUSES}")


@dataclass(frozen=True)
class CohortFaults:
    """Mid-round faults addressed by *position* within the trainable cohort.

    This is what :meth:`repro.federated.LocalUpdateExecutor.run_round`
    consumes: ``dropped`` maps cohort positions to their failure cause
    (currently always ``"dropout"``), ``delays`` maps positions of
    stragglers to their simulated delay in seconds, and ``deadline`` is the
    round's collection deadline — the executor drops stragglers whose delay
    exceeds it (cause ``"straggler"``) and reports the surviving cohort's
    simulated duration.  An empty ``CohortFaults()`` is a guaranteed no-op.

    Example
    -------
    >>> faults = CohortFaults(dropped={1: "dropout"}, delays={0: 3.5}, deadline=2.0)
    >>> sorted(faults.resolve())
    [0, 1]
    >>> CohortFaults().resolve()
    {}
    """

    dropped: Mapping[int, str] = field(default_factory=dict)
    delays: Mapping[int, float] = field(default_factory=dict)
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dropped",
                           {int(p): str(c) for p, c in dict(self.dropped).items()})
        object.__setattr__(self, "delays",
                           {int(p): float(d) for p, d in dict(self.delays).items()})
        if any(d < 0 for d in self.delays.values()):
            raise ValueError("delays must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    def resolve(self) -> "dict[int, str]":
        """Final ``position -> cause`` map: dropouts plus timed-out stragglers.

        Example
        -------
        >>> CohortFaults(delays={2: 9.0}, deadline=5.0).resolve()
        {2: 'straggler'}
        """
        failed = dict(self.dropped)
        if self.deadline is not None:
            for position, delay in self.delays.items():
                if position not in failed and delay > self.deadline:
                    failed[position] = "straggler"
        return failed

    def round_delay(self) -> float:
        """Simulated round duration: the slowest *surviving* straggler's delay.

        Example
        -------
        >>> CohortFaults(delays={0: 1.5, 1: 9.0}, deadline=5.0).round_delay()
        1.5
        """
        failed = self.resolve()
        return max((d for p, d in self.delays.items() if p not in failed),
                   default=0.0)


@dataclass(frozen=True)
class RoundPlan:
    """Everything the injector decided about one round.

    ``planned`` is the selector's cohort; ``trainable`` is what is left
    after pre-round faults (availability and churn); ``pre_faults`` records
    those removals; ``dropouts`` and ``delays`` are the mid-round decisions
    (by client id) that :meth:`cohort_faults` re-addresses by position for
    the executor.

    Example
    -------
    >>> plan = RoundPlan(round_index=0, planned=(3, 1, 4), trainable=(1, 4),
    ...                  pre_faults=(ClientFault(3, "offline"),),
    ...                  dropouts=(4,), delays={}, deadline=None)
    >>> plan.cohort_faults().dropped
    {1: 'dropout'}
    """

    round_index: int
    planned: tuple[int, ...]
    trainable: tuple[int, ...]
    pre_faults: tuple[ClientFault, ...]
    dropouts: tuple[int, ...]
    delays: Mapping[int, float]
    deadline: Optional[float]

    def cohort_faults(self) -> CohortFaults:
        """The executor-facing view: faults by position within ``trainable``."""
        position = {client_id: i for i, client_id in enumerate(self.trainable)}
        return CohortFaults(
            dropped={position[c]: "dropout" for c in self.dropouts},
            delays={position[c]: d for c, d in self.delays.items()},
            deadline=self.deadline,
        )

    def failures_by_client(self) -> "dict[int, str]":
        """Every fault already decided, as ``client_id -> cause``.

        Mid-round straggler timeouts are resolved by the executor, so this
        contains pre-round faults and dropouts only.

        Example
        -------
        >>> plan = RoundPlan(0, (1, 2), (2,), (ClientFault(1, "left"),),
        ...                  (), {}, None)
        >>> plan.failures_by_client()
        {1: 'left'}
        """
        failures = {f.client_id: f.cause for f in self.pre_faults}
        failures.update({c: "dropout" for c in self.dropouts})
        return failures


class FaultInjector:
    """Deterministic per-round fault decisions for one scenario.

    Example
    -------
    >>> from repro.scenarios.spec import DropoutSpec, ScenarioSpec
    >>> injector = FaultInjector(ScenarioSpec(dropouts=DropoutSpec(1.0), seed=1))
    >>> plan = injector.plan_round(0, [4, 9])
    >>> plan.trainable, plan.dropouts
    ((4, 9), (4, 9))
    >>> injector.plan_round(0, [4, 9]) == plan  # fully reproducible
    True
    """

    def __init__(self, spec: ScenarioSpec):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError("spec must be a ScenarioSpec")
        self.spec = spec

    # -- randomness -------------------------------------------------------------

    def _client_rng(self, round_index: int, client_id: int,
                    stream: int = 0) -> np.random.Generator:
        """The generator a ``(round, client)`` decision stream comes from.

        ``stream`` 0 seeds the availability draw, 1 the mid-round draws
        (dropout, straggle, delay — in that fixed order), so the two fault
        families stay statistically independent of each other.
        """
        return np.random.default_rng(
            [self.spec.seed, round_index, client_id, stream])

    # -- schedule queries --------------------------------------------------------

    def presence(self, client_id: int, round_index: int) -> Optional[str]:
        """Why *client_id* is absent at *round_index* (``None`` when present).

        Example
        -------
        >>> from repro.scenarios.spec import ChurnSpec, ScenarioSpec
        >>> injector = FaultInjector(ScenarioSpec(churn=ChurnSpec(joins={5: 3})))
        >>> injector.presence(5, 0), injector.presence(5, 3)
        ('not_joined', None)
        """
        if round_index < self.spec.churn.joins.get(client_id, 0):
            return "not_joined"
        leave = self.spec.churn.leaves.get(client_id)
        if leave is not None and round_index >= leave:
            return "left"
        return None

    def drift_due(self, round_index: int) -> bool:
        """Whether a drift event fires at the start of *round_index*.

        Example
        -------
        >>> from repro.scenarios.spec import DriftSpec, ScenarioSpec
        >>> injector = FaultInjector(ScenarioSpec(drift=DriftSpec(period=2)))
        >>> [injector.drift_due(r) for r in range(5)]
        [False, False, True, False, True]
        """
        period = self.spec.drift.period
        return period > 0 and round_index > 0 and round_index % period == 0

    # -- the round plan -----------------------------------------------------------

    def plan_round(self, round_index: int, planned: Sequence[int]) -> RoundPlan:
        """Decide every fault of one round for the *planned* cohort.

        Pre-round faults (churn, scheduled and random availability) remove
        clients before any compute is spent; mid-round faults (dropout,
        straggler delays) are decided here but applied by the executor.  A
        client suffers at most one fault, decided in
        :data:`FAILURE_CAUSES` order.

        Example
        -------
        >>> injector = FaultInjector(ScenarioSpec())
        >>> injector.plan_round(0, [2, 7]).trainable
        (2, 7)
        """
        spec = self.spec
        down = spec.availability.down_rounds.get(round_index, ())
        pre_faults: list[ClientFault] = []
        trainable: list[int] = []
        for client_id in planned:
            cause = self.presence(client_id, round_index)
            if cause is None and client_id in down:
                cause = "offline"
            if cause is None and spec.availability.offline_probability > 0:
                rng = self._client_rng(round_index, client_id, stream=0)
                if rng.random() < spec.availability.offline_probability:
                    cause = "offline"
            if cause is None:
                trainable.append(client_id)
            else:
                pre_faults.append(ClientFault(client_id, cause))

        dropouts: list[int] = []
        delays: dict[int, float] = {}
        if spec.dropouts.probability > 0 or spec.stragglers.probability > 0:
            for client_id in trainable:
                rng = self._client_rng(round_index, client_id, stream=1)
                if rng.random() < spec.dropouts.probability:
                    dropouts.append(client_id)
                elif rng.random() < spec.stragglers.probability:
                    delays[client_id] = float(
                        rng.exponential(spec.stragglers.mean_delay))
        return RoundPlan(
            round_index=round_index,
            planned=tuple(int(c) for c in planned),
            trainable=tuple(trainable),
            pre_faults=tuple(pre_faults),
            dropouts=tuple(dropouts),
            delays=delays,
            deadline=spec.stragglers.deadline,
        )
