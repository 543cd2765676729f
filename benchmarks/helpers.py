"""Shared machinery for the reproduction benchmarks.

Every benchmark file regenerates one table or figure of the paper.  The
experiments all share the same skeleton — build a federation with a given
(ρ, EMD_avg), plug in a selector, either measure selection bias or run
federated training — so that skeleton lives here.

Scale note
----------
The paper trains ResNet18/CNNs on real MNIST/CIFAR10/FEMNIST for up to 1500
rounds on a GPU.  The benchmarks default to a reduced scale (documented in
each file): fewer clients, fewer rounds, an MLP/compact
CNN on synthetic data.  The *shape* of each result — which method wins, how
the ordering changes with ρ, EMD_avg, K and H — is what the reproduction
checks.  ``paper_scale()`` in each benchmark file records the full-size
configuration for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import DubheConfig, DubheSelector, GreedySelector, RandomSelector
from repro.core.parameter_search import search_thresholds
from repro.data import EMDTargetPartitioner, half_normal_class_proportions, make_uniform_test_set
from repro.data.partition import ClientPartition
from repro.data.synthetic import SyntheticImageGenerator, make_synthetic_cifar, make_synthetic_mnist
from repro.federated import FederatedConfig, FederatedSimulation, LocalTrainingConfig, TrainingHistory
from repro.nn.models import MLP

__all__ = [
    "BenchFederation",
    "build_federation",
    "make_selector",
    "settle_dubhe_config",
    "run_training",
    "print_table",
]

GROUP1_THRESHOLDS = {1: 0.7, 2: 0.1, 10: 0.0}   # the paper's searched optimum (Fig. 10)


@dataclass
class BenchFederation:
    """A federation plus everything the benchmarks need to train on it."""

    partition: ClientPartition
    generator: SyntheticImageGenerator
    distributions: np.ndarray
    name: str

    @property
    def num_classes(self) -> int:
        return self.partition.num_classes


def build_federation(dataset: str, rho: float, emd_avg: float, n_clients: int,
                     samples_per_client: int = 32, seed: int = 0) -> BenchFederation:
    """Build a ``<dataset>-<rho>/<emd>`` federation (the paper's naming scheme)."""
    global_dist = half_normal_class_proportions(10, rho)
    partition = EMDTargetPartitioner(
        n_clients=n_clients, samples_per_client=samples_per_client,
        emd_target=emd_avg, seed=seed,
    ).partition(global_dist)
    if dataset == "mnist":
        generator = make_synthetic_mnist(seed=seed)
    elif dataset == "cifar":
        generator = make_synthetic_cifar(seed=seed)
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return BenchFederation(
        partition=partition,
        generator=generator,
        distributions=partition.client_distributions(),
        name=f"{dataset.upper()}-{rho:g}/{emd_avg:g}",
    )


def settle_dubhe_config(distributions: np.ndarray, k: int, h: int = 1,
                        num_classes: int = 10, reference_set=(1, 2, 10),
                        thresholds: Optional[dict] = None, seed: int = 0) -> DubheConfig:
    """A settled DubheConfig: fixed thresholds if given, else parameter search."""
    if thresholds is None:
        unsettled = DubheConfig(num_classes=num_classes, reference_set=reference_set,
                                participants_per_round=k, tentative_selections=3, seed=seed)
        thresholds = search_thresholds(distributions, unsettled,
                                       sigma_grid=(0.1, 0.3, 0.5, 0.7), seed=seed).thresholds
    return DubheConfig(num_classes=num_classes, reference_set=reference_set,
                       thresholds=thresholds, participants_per_round=k,
                       tentative_selections=h, seed=seed)


def make_selector(name: str, fed: BenchFederation, k: int, h: int = 1,
                  thresholds: Optional[dict] = GROUP1_THRESHOLDS, seed: int = 0):
    """Instantiate one of the three strategies on a benchmark federation."""
    if name == "random":
        return RandomSelector(fed.distributions, k, seed=seed)
    if name == "greedy":
        return GreedySelector(fed.distributions, k, seed=seed)
    if name == "dubhe":
        config = settle_dubhe_config(fed.distributions, k, h=h,
                                     num_classes=fed.num_classes,
                                     thresholds=thresholds, seed=seed)
        return DubheSelector(fed.distributions, config, seed=seed)
    raise ValueError(f"unknown selector {name!r}")


def run_training(fed: BenchFederation, selector, rounds: int, k: int,
                 eval_every: int = 1,
                 learning_rate: float = 3e-3, local_epochs: int = 1,
                 test_samples_per_class: int = 20, seed: int = 0) -> TrainingHistory:
    """Run a reduced-scale federated MLP training and return its history."""
    test_set = make_uniform_test_set(fed.generator, samples_per_class=test_samples_per_class,
                                     seed=seed + 1)

    def model_factory():
        return MLP(fed.generator.flat_feature_dim(), fed.num_classes,
                   hidden=(32,), seed=seed + 11)

    sim = FederatedSimulation(
        partition=fed.partition,
        generator=fed.generator,
        model_factory=model_factory,
        selector=selector,
        test_set=test_set,
        config=FederatedConfig(
            rounds=rounds,
            eval_every=eval_every,
            local=LocalTrainingConfig(batch_size=8, local_epochs=local_epochs,
                                      learning_rate=learning_rate),
            seed=seed,
        ),
    )
    return sim.run()


def print_table(title: str, rows: list[dict]) -> None:
    """Print a list of dict rows as an aligned text table (benchmark output)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
