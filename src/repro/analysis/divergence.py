"""Weight-divergence measurement (the empirical side of eq. (2), §4.2).

The paper bounds the divergence between FedAvg weights and the weights of a
centralised run by two EMD terms: ① the discrepancy between each client's
distribution and the population distribution, and ② the gap between the
population distribution and the uniform distribution.  This module measures
the divergence directly — train the same initial model (a) centrally on the
pooled selected data and (b) federated over the selected clients — so the
eq. (2) benchmark can show the divergence growing with either EMD term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.distributions import (
    average_emd,
    emd,
    population_distribution,
    uniform_distribution,
)
from ..federated.aggregation import average_states, state_difference_norm
from ..federated.client import FederatedClient, LocalTrainingConfig
from ..federated.executor import LocalUpdateExecutor
from ..nn.module import Module

__all__ = ["DivergenceReport", "weight_divergence_experiment"]


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of one weight-divergence experiment."""

    weight_divergence: float          # ||ω_fed − ω_central||₂ after training
    emd_clients_to_population: float  # mean ||p_k − p_o||₁  (term ①)
    emd_population_to_uniform: float  # ||p_o − p_u||₁       (term ②)
    rounds: int
    local_steps: int


def weight_divergence_experiment(
    model_factory: Callable[[], Module],
    client_datasets: Sequence[ArrayDataset],
    num_classes: int,
    rounds: int = 3,
    local_steps: int = 10,
    lr: float = 0.05,
    batch_size: int = 16,
    seed: int = 0,
) -> DivergenceReport:
    """Measure FedAvg-vs-centralised weight divergence on given client data.

    Both runs start from the same initial weights (same ``model_factory``
    seed) and train through :class:`~repro.federated.LocalUpdateExecutor`,
    each local update being ``local_steps`` SGD steps on one fresh
    mini-batch each.  Each round the federated run trains every client from
    the global weights and averages (eq. (1)); the centralised run trains one
    client holding the pooled data for the same number of steps.  The
    returned report pairs the measured divergence with the two EMD terms of
    eq. (2).
    """
    if not client_datasets:
        raise ValueError("need at least one client dataset")
    if rounds < 1 or local_steps < 1:
        raise ValueError("rounds and local_steps must be positive")

    first, second = model_factory(), model_factory()
    if not np.array_equal(first.flatten_parameters(), second.flatten_parameters()):
        raise ValueError("model_factory must produce identically initialised models")
    federated = centralized = first.state_dict()

    clients = [FederatedClient(i, num_classes, dataset=ds, seed=seed + i)
               for i, ds in enumerate(client_datasets)]
    pooled = ArrayDataset(np.concatenate([ds.x for ds in client_datasets]),
                          np.concatenate([ds.y for ds in client_datasets]),
                          num_classes=num_classes)
    central = [FederatedClient(len(clients), num_classes, dataset=pooled,
                               seed=seed + len(clients))]
    config = LocalTrainingConfig(batch_size=batch_size, local_epochs=local_steps,
                                 max_batches_per_epoch=1, learning_rate=lr,
                                 optimizer="sgd")
    federated_executor, central_executor = LocalUpdateExecutor(), LocalUpdateExecutor()
    for r in range(rounds):
        # a vectorized round returns views into its executor's pools, which
        # that executor's next round overwrites: average them first
        federated = average_states(federated_executor.run_round(
            clients, model_factory, federated, config, round_index=r).states)
        centralized = average_states(central_executor.run_round(
            central, model_factory, centralized, config, round_index=r).states)

    divergence = state_difference_norm(federated, centralized)

    client_dists = [ds.class_distribution() for ds in client_datasets]
    p_o = population_distribution(client_dists)
    term1 = average_emd(client_dists, p_o)
    term2 = emd(p_o, uniform_distribution(num_classes))
    return DivergenceReport(
        weight_divergence=float(divergence),
        emd_clients_to_population=term1,
        emd_population_to_uniform=term2,
        rounds=rounds,
        local_steps=local_steps,
    )
