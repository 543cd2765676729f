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

from helpers import build_federation, make_selector, print_table, run_training

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
    def experiment():
        results = {}
        for rho in GRID_RHO:
            for emd in GRID_EMD:
                fed = build_federation("mnist", rho=rho, emd_avg=emd,
                                       n_clients=N_CLIENTS, seed=5)
                cell = {}
                for name in SELECTORS:
                    selector = make_selector(name, fed, K, seed=5)
                    history = run_training(fed, selector, rounds=ROUNDS, k=K,
                                           eval_every=2, learning_rate=3e-3, seed=5)
                    cell[name] = history.tail_average_accuracy(TAIL)
                results[(rho, emd)] = cell
        return results

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
