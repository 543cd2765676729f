#!/usr/bin/env python
"""FEMNIST-scale client selection: Dubhe at 52 classes and thousands of clients.

The paper's third workload stresses Dubhe where the registry is *sparse*: 52
letter classes, reference set G = {1, 52}, and a large, naturally skewed
client population (Table 1: ρ = 13.64, EMD_avg = 0.554, N = 8962).  This
example rebuilds that federation (synthetically — docs/paper_mapping.md,
"Where the models and data depart from the paper", records the
substitution), runs Dubhe against random and greedy selection, and reports
the population bias each method achieves, plus how the registry's sparsity
shows up in which letters never get a dominating client (the Figure 10
discussion).

Run it with::

    python examples/femnist_selection.py            # 2000 clients, fast
    python examples/femnist_selection.py --paper    # 8962 clients as in the paper
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import DubheConfig, DubheSelector, GreedySelector, RandomSelector
from repro.core.parameter_search import search_thresholds
from repro.data import FEMNIST_PAPER_CLIENTS, make_femnist_federation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's full client count (8962)")
    parser.add_argument("--clients", type=int, default=2000)
    parser.add_argument("--k", type=int, default=20, help="participants per round")
    parser.add_argument("--rounds", type=int, default=30, help="selection rounds to average")
    args = parser.parse_args()

    n_clients = FEMNIST_PAPER_CLIENTS if args.paper else args.clients
    federation = make_femnist_federation(n_clients=n_clients, samples_per_client=64, seed=0)
    distributions = federation.partition.client_distributions()
    print("FEMNIST-like federation")
    for key, value in federation.summary().items():
        print(f"  {key:<18}: {value}")

    # -------------------------------------------------------------- selectors
    config = DubheConfig(
        num_classes=52, reference_set=(1, 52),
        participants_per_round=args.k, tentative_selections=5, seed=0,
    )
    search = search_thresholds(distributions, config, sigma_grid=(0.1, 0.2, 0.3, 0.5), seed=0)
    print(f"\nparameter search settled thresholds: {search.thresholds}")

    selectors = {
        "random": RandomSelector(distributions, args.k, seed=1),
        "greedy": GreedySelector(distributions, args.k, seed=1),
        "dubhe": DubheSelector(distributions, search.config, seed=1),
    }

    uniform = np.full(52, 1 / 52)
    print(f"\nPopulation bias ||p_o − p_u||₁ over {args.rounds} rounds (K = {args.k})")
    populations = {}
    for name, selector in selectors.items():
        biases, pops = [], []
        for r in range(args.rounds):
            selected = selector.select(r)
            pop = distributions[np.asarray(selected)].mean(axis=0)
            pops.append(pop)
            biases.append(np.abs(pop - uniform).sum())
        populations[name] = np.mean(pops, axis=0)
        print(f"  {name:<7}: mean={np.mean(biases):.4f}  std={np.std(biases):.4f}")

    # ------------------------------------------------------ registry sparsity
    dubhe = selectors["dubhe"]
    assert isinstance(dubhe, DubheSelector)
    overall = dubhe.overall_registry
    single_block = overall[: 52]
    missing = np.flatnonzero(single_block == 0)
    print("\nRegistry sparsity (single-dominating-class block):")
    print(f"  letters with at least one dominating client : {52 - missing.size}/52")
    print(f"  letters never dominated (minority letters)   : {missing.size}")
    if missing.size:
        print(f"  those letters                                : {missing.tolist()[:15]}"
              + (" ..." if missing.size > 15 else ""))
    avg_pop = populations["dubhe"]
    print(f"  avg participated share of the rarest letter  : {avg_pop.min():.4f} "
          f"(uniform target {1 / 52:.4f})")


if __name__ == "__main__":
    main()
