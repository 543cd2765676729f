"""Federated-learning simulation engine (the substrate Dubhe plugs into).

Public API
----------
* :class:`FederatedClient`, :class:`LocalTrainingConfig` — local training.
* :class:`FederatedServer` — global model and aggregation.
* :func:`average_states`, :func:`weighted_average_states` — FedVC/FedAvg rules.
* :class:`LocalUpdateExecutor` — sequential/vectorized local updates
  (``"vectorized"`` trains the whole cohort as one batched tensor program;
  see :mod:`repro.nn.batched`).
* :class:`StackedClientStates` — zero-copy per-client views into the
  cohort's stacked parameters, aggregated via one mean over the client axis.
* :class:`CohortWorkspace` — the round-persistent pools/optimiser/data
  buffers the vectorized back-end reuses across rounds.
* :class:`FederatedSimulation`, :class:`FederatedConfig` — the round loop
  (``FederatedConfig(scenario=...)`` opts into :mod:`repro.scenarios` fault
  injection with partial-round aggregation).
* :class:`TrainingHistory`, :class:`RoundRecord` — per-round metrics,
  including planned-vs-actual participation and failure causes under a
  scenario.
"""

from .aggregation import (
    StackedClientStates,
    average_states,
    state_difference_norm,
    weighted_average_states,
)
from .client import FederatedClient, LocalTrainingConfig
from .executor import EXECUTOR_MODES, LocalUpdateExecutor
from .history import RoundRecord, TrainingHistory
from .server import FederatedServer
from .simulation import ClientSelectorProtocol, FederatedConfig, FederatedSimulation
from .workspace import CohortWorkspace, train_cohort

__all__ = [
    "ClientSelectorProtocol",
    "CohortWorkspace",
    "EXECUTOR_MODES",
    "FederatedClient",
    "FederatedConfig",
    "FederatedServer",
    "FederatedSimulation",
    "LocalTrainingConfig",
    "LocalUpdateExecutor",
    "RoundRecord",
    "StackedClientStates",
    "TrainingHistory",
    "average_states",
    "state_difference_norm",
    "train_cohort",
    "weighted_average_states",
]
