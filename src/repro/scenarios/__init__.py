"""Scenario engine: fault injection for federated runs (availability, churn,
stragglers, dropouts) with partial-round aggregation.

Public API
----------
* :class:`ScenarioSpec` and its parts — :class:`AvailabilitySpec`,
  :class:`ChurnSpec`, :class:`StragglerSpec`, :class:`DropoutSpec`,
  :class:`NetworkSpec` — declarative, validated fault descriptions
  (``NetworkSpec`` drives the chaos proxy on real sockets).
* :class:`FaultInjector`, :class:`RoundPlan`, :data:`FAILURE_CAUSES` — the
  seeded engine that turns a spec into reproducible per-round decisions:
  each round's plan is who trains, who fails (client id → cause) and the
  simulated round delay.

A :class:`ScenarioSpec` plugs into
:class:`repro.federated.FederatedConfig(scenario=...)
<repro.federated.FederatedConfig>`; the round loop consults the injector,
the transport leaves the failed clients out, and the server aggregates the
partial round (or skips it below the participation threshold).  The run's
:class:`~repro.federated.TrainingHistory` reduces it: the failure census
(``failure_counts()``), the skipped rounds and the survivors' population
EMD beside the planned one.  The empty
``ScenarioSpec()`` is guaranteed to leave every executor back-end
bit-identical to a scenario-free run.
"""

from .engine import (
    FAILURE_CAUSES,
    FaultInjector,
    RoundPlan,
)
from .spec import (
    PARTITION_DIRECTIONS,
    AvailabilitySpec,
    ChurnSpec,
    DropoutSpec,
    NetworkSpec,
    ScenarioSpec,
    StragglerSpec,
)

__all__ = [
    "AvailabilitySpec",
    "ChurnSpec",
    "DropoutSpec",
    "FAILURE_CAUSES",
    "FaultInjector",
    "NetworkSpec",
    "PARTITION_DIRECTIONS",
    "RoundPlan",
    "ScenarioSpec",
    "StragglerSpec",
]
