"""Figure 2 — the motivation experiments.

Paper setup (§3, Figure 2): CIFAR10, N = 1000 clients, K = 20, random
selection, 1000 rounds.
  (a) fix EMD_avg = 1 and sweep the global imbalance ratio ρ ∈ {1, 2, 5, 10}:
      test accuracy degrades as ρ grows, and the participated class
      proportion tracks the skewed global distribution.
  (b) fix ρ = 10 and sweep EMD_avg ∈ {0, 0.5, 1.0, 1.5}: accuracy degrades
      and fluctuates more as clients become more dissimilar.

Reduced scale here: a CIFAR-like synthetic task, N = 60, K = 8, an MLP and a
short horizon.  The reproduced claims are the *orderings*: accuracy is
non-increasing in ρ and in EMD_avg (up to noise), and the expected
participated class proportion under random selection matches the skewed
global distribution rather than the uniform one.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import build_federation, make_selector, print_table, run_training

N_CLIENTS = 60
K = 8
ROUNDS = 24
TAIL = 4


def paper_scale() -> dict:
    """The configuration used by the paper (for reference, not executed)."""
    return {"dataset": "CIFAR10", "n_clients": 1000, "k": 20, "rounds": 1000,
            "model": "ResNet18", "rho_sweep": (1, 2, 5, 10), "emd_sweep": (0, 0.5, 1.0, 1.5)}


def _train_random(rho: float, emd: float, seed: int = 0):
    fed = build_federation("cifar", rho=rho, emd_avg=emd, n_clients=N_CLIENTS, seed=seed)
    selector = make_selector("random", fed, K, seed=seed)
    history = run_training(fed, selector, rounds=ROUNDS, k=K,
                           eval_every=2, learning_rate=3e-3, seed=seed)
    return fed, history


@pytest.mark.benchmark(group="fig2")
def test_fig2a_global_skew(benchmark):
    """Accuracy vs global imbalance ratio ρ under random selection."""
    rhos = (1.0, 5.0, 10.0)

    def experiment():
        results = {}
        for rho in rhos:
            fed, history = _train_random(rho=rho, emd=1.0, seed=1)
            results[rho] = (fed, history)
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for rho, (fed, history) in results.items():
        rows.append({
            "setting": fed.name,
            "rho": rho,
            "tail_accuracy": round(history.tail_average_accuracy(TAIL), 3),
            "mean_bias": round(history.mean_population_bias(), 3),
        })
    print_table("Figure 2(a): accuracy vs global skew (random selection)", rows)

    # participated class proportion tracks the skewed global distribution
    fed, history = results[10.0]
    avg_pop = history.average_population_distribution()
    global_dist = fed.partition.global_distribution()
    uniform = np.full(10, 0.1)
    assert np.abs(avg_pop - global_dist).sum() < np.abs(avg_pop - uniform).sum()

    # accuracy degrades from the balanced to the most skewed setting
    accs = {rho: h.tail_average_accuracy(TAIL) for rho, (_, h) in results.items()}
    assert accs[10.0] <= accs[1.0] + 0.05


@pytest.mark.benchmark(group="fig2")
def test_fig2b_client_discrepancy(benchmark):
    """Accuracy vs client discrepancy EMD_avg at fixed ρ = 10, random selection."""
    emds = (0.0, 1.5)

    def experiment():
        return {emd: _train_random(rho=10.0, emd=emd, seed=2) for emd in emds}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for emd, (fed, history) in results.items():
        rows.append({
            "setting": fed.name,
            "emd_avg": emd,
            "achieved_emd": round(fed.partition.achieved_emd_avg(), 3),
            "tail_accuracy": round(history.tail_average_accuracy(TAIL), 3),
            "bias_std": round(float(np.std(history.population_biases())), 3),
        })
    print_table("Figure 2(b): accuracy vs client discrepancy (random selection)", rows)

    # the per-round population bias fluctuates more when clients are dissimilar
    std_iid = np.std(results[0.0][1].population_biases())
    std_noniid = np.std(results[1.5][1].population_biases())
    assert std_noniid >= std_iid - 1e-6
    # accuracy does not improve when moving from IID to extreme discrepancy
    assert (results[1.5][1].tail_average_accuracy(TAIL)
            <= results[0.0][1].tail_average_accuracy(TAIL) + 0.05)
