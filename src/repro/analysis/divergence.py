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

from ..data.dataloader import DataLoader
from ..data.dataset import ArrayDataset
from ..data.distributions import (
    average_emd,
    emd,
    population_distribution,
    uniform_distribution,
)
from ..federated.aggregation import average_states, state_difference_norm
from ..nn.loss import CrossEntropyLoss
from ..nn.module import Module
from ..nn.optim import SGD

__all__ = ["DivergenceReport", "weight_divergence_experiment"]


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of one weight-divergence experiment."""

    weight_divergence: float          # ||ω_fed − ω_central||₂ after training
    emd_clients_to_population: float  # mean ||p_k − p_o||₁  (term ①)
    emd_population_to_uniform: float  # ||p_o − p_u||₁       (term ②)
    rounds: int
    local_steps: int


def _train_steps(model: Module, dataset: ArrayDataset, steps: int, lr: float,
                 batch_size: int, seed: int) -> None:
    """Run a fixed number of SGD steps on a dataset (in place)."""
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model, lr=lr)
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=seed)
    done = 0
    while done < steps:
        for xb, yb in loader:
            if done >= steps:
                break
            logits = model(xb)
            _, grad = loss_fn(logits, yb)
            optimizer.zero_grad()
            model.backward(grad)
            optimizer.step()
            done += 1


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
    seed).  Each round, the federated run trains one clone per client for
    ``local_steps`` SGD steps and averages (eq. (1)); the centralised run
    trains a single model for the same total number of steps on the pooled
    data.  The returned report pairs the measured divergence with the two
    EMD terms of eq. (2).
    """
    if not client_datasets:
        raise ValueError("need at least one client dataset")
    if rounds < 1 or local_steps < 1:
        raise ValueError("rounds and local_steps must be positive")

    federated = model_factory()
    centralized = model_factory()
    if not np.allclose(federated.flatten_parameters(), centralized.flatten_parameters()):
        raise ValueError("model_factory must produce identically initialised models")

    pooled_x = np.concatenate([ds.x for ds in client_datasets])
    pooled_y = np.concatenate([ds.y for ds in client_datasets])
    pooled = ArrayDataset(pooled_x, pooled_y, num_classes=num_classes)

    for r in range(rounds):
        # federated: every client trains a clone of the current global model
        states = []
        for i, ds in enumerate(client_datasets):
            clone = federated.clone()
            _train_steps(clone, ds, local_steps, lr, batch_size, seed + 31 * r + i)
            states.append(clone.state_dict())
        federated.load_state_dict(average_states(states))
        # centralised: same number of optimisation steps on the pooled data
        _train_steps(centralized, pooled, local_steps, lr, batch_size, seed + 97 * r)

    divergence = state_difference_norm(federated.state_dict(), centralized.state_dict())

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
