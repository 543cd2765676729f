"""Table 2 — the multi-time selection study.

Paper setup: the group-1 federation (ρ = 10, EMD_avg = 1.5, N = 1000,
K = 20); for H ∈ {1, 2, 5, 10, 20} run Dubhe with an H-time tentative
selection and report:

* ``EMD* = ||p_o,h* − p_u||₁`` — the bias of the chosen try (decreases with H:
  paper values 0.2946 → 0.1750 from H = 1 to H = 20, greedy "opt" 0.0144);
* the resulting model accuracy on MNIST and CIFAR10 and the improvement
  fraction β relative to the single-time selection (greedy = 100 %).

Reproduced here: the full EMD* column at the paper's federation size (cheap,
selection only), plus a reduced-scale training comparison for H ∈ {1, 10} on
the MNIST-like task to show the accuracy moving toward the greedy bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import print_table
from repro import FederatedConfig, LocalTrainingConfig, Session
from repro.ledger.recipes import federation

H_VALUES = (1, 2, 5, 10, 20)
N_CLIENTS = 1000
K = 20
RHO = 10.0
EMD_AVG = 1.5
SELECTION_ROUNDS = 40

# training comparison (reduced scale)
TRAIN_CLIENTS = 80
TRAIN_K = 10
TRAIN_ROUNDS = 40
TAIL = 8


def paper_scale() -> dict:
    return {"H": H_VALUES, "n_clients": 1000, "k": 20,
            "paper_emd_star": {1: 0.2946, 2: 0.2588, 5: 0.2176, 10: 0.1971, 20: 0.1750,
                               "opt": 0.0144},
            "paper_beta_mnist": {2: 0.176, 5: 0.105, 10: 0.695, 20: 0.515},
            "paper_beta_cifar": {2: 0.148, 5: 0.126, 10: 0.095, 20: 0.188}}


@pytest.mark.benchmark(group="table2")
def test_table2_emd_star_vs_h(benchmark):
    """EMD* decreases as the number of tentative selections H grows."""

    def recipe_selector(name, tries=1):  # the group-1 federation, Dubhe on its thresholds
        return federation(rho=RHO, emd_avg=EMD_AVG, n_clients=N_CLIENTS, samples_per_client=128,
                          participants=K, tries=tries, selector=name, seed=10)["selector"]

    def experiment():
        emd_star = {}
        for h in H_VALUES:
            selector = recipe_selector("dubhe", h)
            biases = []
            for r in range(SELECTION_ROUNDS):
                selector.select(r)
                biases.append(selector.last_bias)
            emd_star[h] = float(np.mean(biases))
        greedy = recipe_selector("greedy")
        emd_star["opt"] = float(np.mean(
            [greedy.bias_of(greedy.select(r)) for r in range(10)]
        ))
        return emd_star

    emd_star = benchmark.pedantic(experiment, rounds=1, iterations=1)

    paper = paper_scale()["paper_emd_star"]
    rows = [{"H": h, "emd_star": round(emd_star[h], 4), "paper": paper[h]}
            for h in list(H_VALUES) + ["opt"]]
    print_table("Table 2: EMD* versus the number of tentative selections H", rows)

    # EMD* decreases (weakly) with H and the greedy bound is far tighter
    assert emd_star[20] < emd_star[1]
    assert emd_star[10] < emd_star[1]
    series = [emd_star[h] for h in H_VALUES]
    assert all(b <= a + 0.03 for a, b in zip(series, series[1:]))
    assert emd_star["opt"] < emd_star[20]


@pytest.mark.benchmark(group="table2")
def test_table2_accuracy_improvement(benchmark):
    """Accuracy with H = 10 moves from the H = 1 result toward the greedy bound."""
    config = FederatedConfig(rounds=TRAIN_ROUNDS, eval_every=2, seed=11,
                             local=LocalTrainingConfig(learning_rate=3e-3))

    def experiment():
        runs = {"dubhe_h1": ("dubhe", 1), "dubhe_h10": ("dubhe", 10), "greedy": ("greedy", 1)}
        return {name: Session(config).with_recipe(
            "repro.ledger.recipes:federation", dataset="mnist", rho=RHO,
            emd_avg=EMD_AVG, n_clients=TRAIN_CLIENTS, samples_per_client=32,
            participants=TRAIN_K, tries=tries, selector=selector, hidden=32,
            test_per_class=20, seed=11, model_seed=11 + 11).run().history
            for name, (selector, tries) in runs.items()}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    acc = {name: h.tail_average_accuracy(TAIL) for name, h in results.items()}
    bias = {name: h.mean_population_bias() for name, h in results.items()}
    denom = acc["greedy"] - acc["dubhe_h1"]
    beta = (acc["dubhe_h10"] - acc["dubhe_h1"]) / denom if abs(denom) > 1e-6 else float("nan")
    rows = [
        {"setting": name, "tail_acc": round(acc[name], 3), "mean_bias": round(bias[name], 3)}
        for name in ("dubhe_h1", "dubhe_h10", "greedy")
    ]
    print_table("Table 2 (reduced scale): accuracy with multi-time selection", rows)
    print(f"\nimprovement fraction β (H=10 vs greedy gap): {beta:.2f} "
          f"(paper MNIST: 0.695 at H=10)")

    # the H = 10 selection is less biased than the one-off selection
    assert bias["dubhe_h10"] <= bias["dubhe_h1"] + 0.02
    # and its accuracy does not regress relative to the one-off selection
    assert acc["dubhe_h10"] >= acc["dubhe_h1"] - 0.05
