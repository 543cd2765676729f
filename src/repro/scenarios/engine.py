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
straggler delays.  The plan also resolves the collection deadline — which
stragglers time out, and how long the survivors kept the round waiting — so
a round's whole fault story is decided here, by client id, before anyone
trains.  The simulation records it and hands the transport only the cohort
positions that fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .spec import ScenarioSpec

__all__ = [
    "FAILURE_CAUSES",
    "ClientFault",
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
    """One injected fault: which client failed, and why.

    Straggler delays are decided per round, in :attr:`RoundPlan.delays`.

    Example
    -------
    >>> fault = ClientFault(client_id=3, cause="dropout")
    >>> (fault.client_id, fault.cause)
    (3, 'dropout')
    """

    client_id: int
    cause: str

    def __post_init__(self) -> None:
        if self.cause not in FAILURE_CAUSES:
            raise ValueError(f"cause must be one of {FAILURE_CAUSES}")


@dataclass(frozen=True)
class RoundPlan:
    """Everything the injector decided about one round.

    ``planned`` is the selector's cohort; ``trainable`` is what is left
    after pre-round faults (availability and churn); ``pre_faults`` records
    those removals; ``dropouts`` and ``delays`` are the mid-round decisions
    by client id, and ``deadline`` is the collection deadline a straggler's
    delay must not exceed.  :meth:`failures_by_client` and
    :meth:`round_delay` resolve them into the round's record.

    Example
    -------
    >>> plan = RoundPlan(round_index=0, planned=(3, 1, 4), trainable=(1, 4),
    ...                  pre_faults=(ClientFault(3, "offline"),),
    ...                  dropouts=(4,), delays={1: 2.5}, deadline=None)
    >>> plan.failures_by_client(), plan.round_delay()
    ({3: 'offline', 4: 'dropout'}, 2.5)
    """

    round_index: int
    planned: tuple[int, ...]
    trainable: tuple[int, ...]
    pre_faults: tuple[ClientFault, ...]
    dropouts: tuple[int, ...]
    delays: Mapping[int, float]
    deadline: Optional[float]

    def _timed_out(self, delay: float) -> bool:
        return self.deadline is not None and delay > self.deadline

    def failures_by_client(self) -> "dict[int, str]":
        """Every fault of the round, as ``client_id -> cause``.

        Pre-round faults first, then dropouts, then the stragglers whose
        delay exceeds the deadline — the order the round records them in.

        Example
        -------
        >>> plan = RoundPlan(0, (1, 2, 3), (2, 3), (ClientFault(1, "left"),),
        ...                  (), {2: 9.0, 3: 1.0}, deadline=5.0)
        >>> plan.failures_by_client()
        {1: 'left', 2: 'straggler'}
        """
        failures = {f.client_id: f.cause for f in self.pre_faults}
        failures.update({c: "dropout" for c in self.dropouts})
        failures.update({c: "straggler" for c, delay in self.delays.items()
                         if self._timed_out(delay)})
        return failures

    def round_delay(self) -> float:
        """Simulated round duration: the slowest *surviving* straggler's delay.

        Without a deadline the round waits for every straggler.

        Example
        -------
        >>> RoundPlan(0, (0, 1), (0, 1), (), (), {0: 1.5, 1: 9.0},
        ...           deadline=5.0).round_delay()
        1.5
        """
        return max((delay for delay in self.delays.values()
                    if not self._timed_out(delay)), default=0.0)


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

    # -- the round plan -----------------------------------------------------------

    def plan_round(self, round_index: int, planned: Sequence[int]) -> RoundPlan:
        """Decide every fault of one round for the *planned* cohort.

        Pre-round faults (churn, scheduled and random availability) remove
        clients before any compute is spent; mid-round faults (dropout,
        straggler delays) are decided here too, and the transport leaves
        those clients' states out of the round.  A client suffers at most
        one fault, decided in :data:`FAILURE_CAUSES` order.

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
