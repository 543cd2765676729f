"""Figure 7 — average accuracy over the last 50 rounds across the ρ × EMD grid.

Paper setup: for every combination of ρ ∈ {1, 2, 5, 10} and EMD_avg ∈
{0, 0.5, 1.0, 1.5}, train with random / Dubhe / greedy selection and report
the average test accuracy over the last 50 rounds.  Findings: accuracy under
random selection decreases with ρ and EMD_avg; Dubhe and greedy are immune to
most of that degradation; all three coincide when there is nothing to balance
(ρ = 1 or EMD_avg = 0).

Reduced scale: the grid corners {ρ = 1, 10} × {EMD = 0, 1.5} (4 cells), N =
60, K = 8, MLP, 40 rounds, tail of 8 evaluated rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import print_table
from repro import FederatedConfig, LocalTrainingConfig, Session

N_CLIENTS = 60
K = 8
ROUNDS = 40
TAIL = 8
GRID_RHO = (1.0, 10.0)
GRID_EMD = (0.0, 1.5)
SELECTORS = ("random", "dubhe", "greedy")


def paper_scale() -> dict:
    return {"rho_grid": (1, 2, 5, 10), "emd_grid": (0, 0.5, 1.0, 1.5),
            "n_clients": 1000, "k": 20, "tail_rounds": 50}


@pytest.mark.benchmark(group="fig7")
def test_fig7_accuracy_grid(benchmark):
    config = FederatedConfig(rounds=ROUNDS, eval_every=2, seed=5,
                             local=LocalTrainingConfig(learning_rate=3e-3))

    def tail_accuracy(rho, emd, selector):
        history = Session(config).with_recipe(
            "repro.ledger.recipes:federation", dataset="mnist", rho=rho,
            emd_avg=emd, n_clients=N_CLIENTS, samples_per_client=32,
            participants=K, selector=selector, hidden=32, test_per_class=20,
            seed=5, model_seed=5 + 11).run().history
        return history.tail_average_accuracy(TAIL)

    def experiment():
        return {(rho, emd): {name: tail_accuracy(rho, emd, name) for name in SELECTORS}
                for rho in GRID_RHO for emd in GRID_EMD}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for (rho, emd), cell in results.items():
        rows.append({"rho": rho, "emd_avg": emd} |
                    {name: round(acc, 3) for name, acc in cell.items()})
    print_table(f"Figure 7: tail accuracy across the grid (last {TAIL} evaluations)", rows)

    hardest = results[(10.0, 1.5)]
    easiest = results[(1.0, 0.0)]
    # random selection suffers between the easy corner and the hard corner
    assert hardest["random"] <= easiest["random"] + 0.03
    # in the hard corner the balanced selections do not do worse than random
    assert hardest["dubhe"] >= hardest["random"] - 0.05
    assert hardest["greedy"] >= hardest["random"] - 0.05
    # in the easy corner all three methods are equivalent (nothing to balance)
    spread = max(easiest.values()) - min(easiest.values())
    assert spread < 0.15
