"""Scenario engine: fault injection for federated runs (churn, stragglers,
dropouts, label drift) with partial-round aggregation.

Public API
----------
* :class:`ScenarioSpec` and its parts — :class:`AvailabilitySpec`,
  :class:`ChurnSpec`, :class:`StragglerSpec`, :class:`DropoutSpec`,
  :class:`DriftSpec`, :class:`NetworkSpec` — declarative, validated fault
  descriptions (``NetworkSpec`` drives the chaos proxy on real sockets).
* :class:`FaultInjector`, :class:`RoundPlan`, :class:`ClientFault`,
  :class:`CohortFaults`, :data:`FAILURE_CAUSES` — the seeded engine that
  turns a spec into reproducible per-round decisions.
* :class:`ScenarioReport` — robustness measured in the paper's own metrics
  (population EMD, accuracy).

A :class:`ScenarioSpec` plugs into
:class:`repro.federated.FederatedConfig(scenario=...)
<repro.federated.FederatedConfig>`; the round loop consults the injector,
the executor drops late/failed clients, and the server aggregates the
partial round (or skips it below the participation threshold).  The empty
``ScenarioSpec()`` is guaranteed to leave every executor back-end
bit-identical to a scenario-free run.
"""

from .engine import (
    FAILURE_CAUSES,
    ClientFault,
    CohortFaults,
    FaultInjector,
    RoundPlan,
)
from .report import ScenarioReport
from .spec import (
    PARTITION_DIRECTIONS,
    AvailabilitySpec,
    ChurnSpec,
    DriftSpec,
    DropoutSpec,
    NetworkSpec,
    ScenarioSpec,
    StragglerSpec,
)

__all__ = [
    "AvailabilitySpec",
    "ChurnSpec",
    "ClientFault",
    "CohortFaults",
    "DriftSpec",
    "DropoutSpec",
    "FAILURE_CAUSES",
    "FaultInjector",
    "NetworkSpec",
    "PARTITION_DIRECTIONS",
    "RoundPlan",
    "ScenarioReport",
    "ScenarioSpec",
    "StragglerSpec",
]
