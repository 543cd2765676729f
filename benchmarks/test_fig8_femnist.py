"""Figure 8 — FEMNIST: accuracy curves and the participated class proportion.

Paper setup: FEMNIST letters (52 classes), 8962 clients, K = 20,
G = {1, 52}, CNN, ~1500 rounds.  Results: random 31.0 %, Dubhe 36.4 %,
greedy 37.4 % test accuracy; the population class proportion under Dubhe is
visibly flatter than under random selection (which follows the skewed global
distribution).

Reduced scale: the synthetic FEMNIST-like federation (same ρ, 52 classes,
writer-style concentration), N = 250 clients, K = 15, an MLP and a
35-round horizon.  Reproduced claims: the ordering
greedy ≥ Dubhe ≥ random in accuracy (within noise) and Dubhe's population
distribution is closer to uniform than random's.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import print_table, run_training
from repro.core import DubheConfig, DubheSelector, GreedySelector, RandomSelector
from repro.core.parameter_search import search_thresholds
from repro.data import make_femnist_federation

from helpers import BenchFederation

N_CLIENTS = 250
K = 15
ROUNDS = 35
TAIL = 6


def paper_scale() -> dict:
    return {"dataset": "FEMNIST letters", "num_classes": 52, "n_clients": 8962,
            "k": 20, "reference_set": (1, 52), "rounds": 1500,
            "paper_accuracy": {"random": 0.310, "dubhe": 0.364, "greedy": 0.374}}


@pytest.mark.benchmark(group="fig8")
def test_fig8_femnist(benchmark):
    def experiment():
        federation = make_femnist_federation(n_clients=N_CLIENTS, samples_per_client=32, seed=6)
        distributions = federation.partition.client_distributions()
        fed = BenchFederation(
            partition=federation.partition,
            generator=federation.generator,
            distributions=distributions,
            name="FEMNIST",
        )
        unsettled = DubheConfig(num_classes=52, reference_set=(1, 52),
                                participants_per_round=K, tentative_selections=3, seed=6)
        settled = search_thresholds(distributions, unsettled,
                                    sigma_grid=(0.1, 0.2, 0.3, 0.5), seed=6)
        selectors = {
            "random": RandomSelector(distributions, K, seed=6),
            "dubhe": DubheSelector(distributions, settled.config, seed=6),
            "greedy": GreedySelector(distributions, K, seed=6),
        }
        histories = {}
        for name, selector in selectors.items():
            histories[name] = run_training(fed, selector, rounds=ROUNDS, k=K,
                                           eval_every=3, learning_rate=3e-3,
                                           test_samples_per_class=6, seed=6)
        return fed, histories

    fed, histories = benchmark.pedantic(experiment, rounds=1, iterations=1)

    paper = paper_scale()["paper_accuracy"]
    rows = []
    for name, history in histories.items():
        rows.append({
            "selector": name,
            "tail_acc": round(history.tail_average_accuracy(TAIL), 3),
            "final_acc": round(history.final_accuracy(), 3),
            "mean_bias": round(history.mean_population_bias(), 3),
            "paper_acc": paper[name],
        })
    print_table(f"Figure 8: FEMNIST-like run (N={N_CLIENTS}, K={K}, rounds={ROUNDS})", rows)

    uniform = np.full(52, 1 / 52)
    rand_pop = histories["random"].average_population_distribution()
    dubhe_pop = histories["dubhe"].average_population_distribution()
    print("\nparticipated class proportion, distance from uniform:")
    print(f"  random: {np.abs(rand_pop - uniform).sum():.3f}")
    print(f"  dubhe : {np.abs(dubhe_pop - uniform).sum():.3f}")

    # population balancing: Dubhe flattens the participated class proportion
    assert np.abs(dubhe_pop - uniform).sum() < np.abs(rand_pop - uniform).sum()
    # accuracy ordering within noise: dubhe/greedy are not worse than random
    acc = {n: h.tail_average_accuracy(TAIL) for n, h in histories.items()}
    assert acc["dubhe"] >= acc["random"] - 0.05
    assert acc["greedy"] >= acc["random"] - 0.05
