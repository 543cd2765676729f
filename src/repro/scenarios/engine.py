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

The injector produces a :class:`RoundPlan` per round, holding only what the
round loop reads: who of the planned cohort trains (availability and churn
are *pre-round* faults, no compute spent), every failure by client id, and
the simulated round delay.  Dropouts, stragglers past the collection
deadline and the surviving stragglers' delays are all resolved here, so a
round's whole fault story is decided by client id before anyone trains.
The simulation records it and hands the transport only the cohort positions
that fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .spec import ScenarioSpec

__all__ = [
    "FAILURE_CAUSES",
    "FaultInjector",
    "RoundPlan",
]

#: Every cause a client can fail with, in the order they are decided.
#: ``not_joined``/``left``/``offline`` strike before training (no compute
#: spent); ``dropout``/``straggler`` strike mid-round (the client's local
#: compute is wasted, as in a real deployment).
FAILURE_CAUSES = ("not_joined", "left", "offline", "dropout", "straggler")


@dataclass(frozen=True)
class RoundPlan:
    """What the injector decided about one round.

    ``trainable`` is the planned cohort less its pre-round faults
    (availability and churn); ``failures`` maps every failed client to its
    cause in record order — pre-round faults, then dropouts, then the
    stragglers whose delay exceeds the deadline; ``round_delay`` is the
    slowest *surviving* straggler's delay (the whole wait without a
    deadline).

    Example
    -------
    >>> plan = RoundPlan(trainable=(1, 4), failures={3: "offline"},
    ...                  round_delay=2.5)
    >>> plan.failures, plan.round_delay
    ({3: 'offline'}, 2.5)
    """

    trainable: tuple[int, ...]
    failures: Mapping[int, str]
    round_delay: float


class FaultInjector:
    """Deterministic per-round fault decisions for one scenario.

    Example
    -------
    >>> from repro.scenarios.spec import DropoutSpec, ScenarioSpec
    >>> injector = FaultInjector(ScenarioSpec(dropouts=DropoutSpec(1.0), seed=1))
    >>> plan = injector.plan_round(0, [4, 9])
    >>> plan.trainable, plan.failures
    ((4, 9), {4: 'dropout', 9: 'dropout'})
    >>> injector.plan_round(0, [4, 9]) == plan  # fully reproducible
    True
    """

    def __init__(self, spec: ScenarioSpec):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError("spec must be a ScenarioSpec")
        self.spec = spec

    def _client_rng(self, round_index: int, client_id: int,
                    stream: int) -> np.random.Generator:
        """The generator a ``(round, client)`` decision stream comes from.

        ``stream`` 0 seeds the availability draw, 1 the mid-round draws
        (dropout, straggle, delay — in that fixed order), so the two fault
        families stay statistically independent of each other.
        """
        return np.random.default_rng(
            [self.spec.seed, round_index, client_id, stream])

    def plan_round(self, round_index: int, planned: Sequence[int]) -> RoundPlan:
        """Decide every fault of one round for the *planned* cohort.

        Pre-round faults (churn, scheduled and random availability) remove
        clients before any compute is spent; mid-round faults (dropout,
        straggler delays) are decided here too, and the transport leaves
        those clients' states out of the round.  A client suffers at most
        one fault, decided in :data:`FAILURE_CAUSES` order.

        Example
        -------
        >>> from repro.scenarios.spec import ChurnSpec, StragglerSpec
        >>> injector = FaultInjector(ScenarioSpec(
        ...     churn=ChurnSpec(joins={2: 3}),
        ...     stragglers=StragglerSpec(probability=1.0, mean_delay=5.0,
        ...                              deadline=1.0)))
        >>> plan = injector.plan_round(0, [2, 7])
        >>> plan.trainable, plan.failures
        ((7,), {2: 'not_joined', 7: 'straggler'})
        """
        spec = self.spec
        churn, availability = spec.churn, spec.availability
        down = availability.down_rounds.get(round_index, ())
        failures: dict[int, str] = {}
        trainable: list[int] = []
        for client_id in planned:
            leave = churn.leaves.get(client_id)
            if round_index < churn.joins.get(client_id, 0):
                failures[client_id] = "not_joined"
            elif leave is not None and round_index >= leave:
                failures[client_id] = "left"
            elif client_id in down or (
                    availability.offline_probability > 0
                    and self._client_rng(round_index, client_id, 0).random()
                    < availability.offline_probability):
                failures[client_id] = "offline"
            else:
                trainable.append(client_id)

        dropped: list[int] = []
        late: list[int] = []
        round_delay = 0.0
        if spec.dropouts.probability > 0 or spec.stragglers.probability > 0:
            deadline = spec.stragglers.deadline
            for client_id in trainable:
                rng = self._client_rng(round_index, client_id, 1)
                if rng.random() < spec.dropouts.probability:
                    dropped.append(client_id)
                elif rng.random() < spec.stragglers.probability:
                    delay = float(rng.exponential(spec.stragglers.mean_delay))
                    if deadline is not None and delay > deadline:
                        late.append(client_id)
                    else:
                        round_delay = max(round_delay, delay)
        failures.update(dict.fromkeys(dropped, "dropout"))
        failures.update(dict.fromkeys(late, "straggler"))
        return RoundPlan(trainable=tuple(trainable), failures=failures,
                         round_delay=round_delay)
