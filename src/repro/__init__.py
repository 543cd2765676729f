"""repro — a from-scratch reproduction of Dubhe (ICPP 2021).

Dubhe is a pluggable, privacy-preserving client-selection system for
federated learning: clients register their dominating data classes in a
homomorphically encrypted registry, compute their own participation
probability from the aggregated registry, and thereby flatten the population
distribution of every training round without revealing any individual
distribution to the server.

Sub-packages
------------
* :mod:`repro.crypto` — Paillier additively homomorphic encryption.
* :mod:`repro.data` — synthetic datasets, global skew, client partitioning.
* :mod:`repro.nn` — NumPy neural-network training substrate.
* :mod:`repro.federated` — the FL simulation engine (FedVC-style rounds).
* :mod:`repro.core` — Dubhe itself: registry, probabilities, selectors,
  multi-time selection, parameter search and the secure protocol, which
  meters its own overhead.
* :mod:`repro.analysis` — unbiasedness and weight-divergence measurements.
* :mod:`repro.scenarios` — fault injection (availability, churn,
  stragglers, dropouts) with partial-round aggregation.
* :mod:`repro.transport` — the federated service layer: typed protocol
  messages over a versioned binary wire format, an asyncio TCP server and
  client, and the in-process transport behind the same interface.
* :mod:`repro.api` — :class:`~repro.api.Session`, the builder for
  scenario, ledger and recipe runs on any transport.

Quickstart
----------
>>> from repro import quick_federation, DubheConfig, DubheSelector
>>> partition, generator = quick_federation(n_clients=100, rho=10.0, emd_avg=1.5, seed=0)
>>> config = DubheConfig(num_classes=10, participants_per_round=10,
...                      thresholds={1: 0.7, 2: 0.1, 10: 0.0})
>>> selector = DubheSelector(partition.client_distributions(), config, seed=0)
>>> selected = selector.select(round_index=0)
"""

from __future__ import annotations

from typing import Optional

from .core import (
    DubheConfig,
    DubheSelector,
    GreedySelector,
    RandomSelector,
    RegistryCodebook,
    SecureRegistrationRound,
    search_thresholds,
)
from .crypto import generate_keypair
from .data import (
    ClientPartition,
    EMDTargetPartitioner,
    half_normal_class_proportions,
    make_femnist_federation,
    make_synthetic_cifar,
    make_synthetic_mnist,
    make_uniform_test_set,
)
from .api import Session, SessionResult
from .federated import FederatedConfig, FederatedSimulation, LocalTrainingConfig
from .scenarios import ScenarioSpec

__version__ = "1.0.0"

__all__ = [
    "ClientPartition",
    "DubheConfig",
    "DubheSelector",
    "EMDTargetPartitioner",
    "FederatedConfig",
    "FederatedSimulation",
    "GreedySelector",
    "LocalTrainingConfig",
    "RandomSelector",
    "RegistryCodebook",
    "ScenarioSpec",
    "SecureRegistrationRound",
    "Session",
    "SessionResult",
    "__version__",
    "generate_keypair",
    "half_normal_class_proportions",
    "make_femnist_federation",
    "make_synthetic_cifar",
    "make_synthetic_mnist",
    "make_uniform_test_set",
    "quick_federation",
    "search_thresholds",
]


def quick_federation(n_clients: int = 100, samples_per_client: int = 64,
                     rho: float = 10.0, emd_avg: float = 1.5, num_classes: int = 10,
                     dataset: str = "mnist", seed: Optional[int] = None):
    """Build a (partition, generator) pair in one call.

    A convenience wrapper used by the examples and benchmarks: creates the
    half-normal global skew with imbalance ratio *rho*, partitions it across
    *n_clients* clients with average client discrepancy *emd_avg*, and
    returns the matching synthetic image generator (``"mnist"`` or
    ``"cifar"`` flavour).
    """
    global_dist = half_normal_class_proportions(num_classes, rho)
    partition = EMDTargetPartitioner(
        n_clients=n_clients,
        samples_per_client=samples_per_client,
        emd_target=emd_avg,
        seed=seed,
    ).partition(global_dist)
    if dataset == "mnist":
        generator = make_synthetic_mnist(num_classes=num_classes, seed=seed)
    elif dataset == "cifar":
        generator = make_synthetic_cifar(num_classes=num_classes, seed=seed)
    else:
        raise ValueError("dataset must be 'mnist' or 'cifar'")
    return partition, generator
