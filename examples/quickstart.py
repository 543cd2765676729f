#!/usr/bin/env python
"""Quickstart: Dubhe client selection on a skewed synthetic federation.

This example walks through the whole public API in a couple of minutes of CPU
time:

1. build a skewed federation (global imbalance ratio ρ = 10, average client
   discrepancy EMD_avg = 1.5 — the paper's hardest setting);
2. run the parameter search to settle the registration thresholds;
3. compare the population bias ``||p_o − p_u||₁`` of random, greedy and Dubhe
   selection;
4. run a short federated training with each selector and report accuracy.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DubheConfig,
    DubheSelector,
    FederatedConfig,
    GreedySelector,
    LocalTrainingConfig,
    RandomSelector,
    Session,
    make_uniform_test_set,
    quick_federation,
    search_thresholds,
)
from repro.nn.models import MLP


def main() -> None:
    # ------------------------------------------------------------------ setup
    n_clients, k = 120, 12
    partition, generator = quick_federation(
        n_clients=n_clients, samples_per_client=32, rho=10.0, emd_avg=1.5, seed=0
    )
    distributions = partition.client_distributions()
    print("Federation statistics")
    print(f"  clients            : {partition.n_clients}")
    print(f"  imbalance ratio ρ  : {partition.achieved_rho():.2f}")
    print(f"  EMD_avg            : {partition.achieved_emd_avg():.3f}")

    # -------------------------------------------------- Dubhe parameter search
    unsettled = DubheConfig(
        num_classes=10, reference_set=(1, 2, 10),
        participants_per_round=k, tentative_selections=5, seed=0,
    )
    search = search_thresholds(distributions, unsettled, sigma_grid=(0.1, 0.3, 0.5, 0.7), seed=0)
    print("\nParameter search")
    print(f"  settled thresholds : {search.thresholds}")
    print(f"  ||E(p_o) − p_u||₁  : {search.score:.4f}")

    # -------------------------------------------------------- selection bias
    selectors = {
        "random": RandomSelector(distributions, k, seed=1),
        "greedy": GreedySelector(distributions, k, seed=1),
        "dubhe": DubheSelector(distributions, search.config, seed=1),
    }
    print("\nPopulation bias ||p_o − p_u||₁ over 50 selections")
    for name, selector in selectors.items():
        biases = [selector.bias_of(selector.select(r)) for r in range(50)]
        print(f"  {name:<7}: mean={np.mean(biases):.4f}  std={np.std(biases):.4f}")

    # -------------------------------------------------------- short training
    test_set = make_uniform_test_set(generator, samples_per_class=20, seed=2)
    print("\nFederated training (10 rounds, MLP, reduced scale)")
    for name in ("random", "dubhe"):
        selector = (
            RandomSelector(distributions, k, seed=3)
            if name == "random"
            else DubheSelector(distributions, search.config, seed=3)
        )
        session = Session(
            FederatedConfig(
                rounds=10,
                eval_every=1,
                local=LocalTrainingConfig(batch_size=8, local_epochs=1, learning_rate=3e-3),
                # cohort back-end (the default): trains all K clients as one
                # batched tensor program; bit-identical to (and several
                # times faster than) training them one at a time
                executor_mode="vectorized",
                seed=3,
            ),
        ).with_federation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(32,), seed=7),
            selector=selector,
            test_set=test_set,
        )
        with session:
            history = session.run().history
        print(
            f"  {name:<7}: final accuracy={history.final_accuracy():.3f}  "
            f"mean round bias={history.mean_population_bias():.3f}"
        )


if __name__ == "__main__":
    main()
