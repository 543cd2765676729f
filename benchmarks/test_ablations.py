"""Ablation benchmarks for the design choices the paper fixes.

These are not figures of the paper; they probe the knobs the paper fixes and
justify the choices the reproduction inherits.  Where its models and data
depart from the paper instead is recorded in docs/paper_mapping.md, "Where
the models and data depart from the paper".

* **reference set** — the paper uses G = {1, 2, 10} for the 10-class tasks.
  How much of Dubhe's balancing comes from the pair block (i = 2)?
* **registration thresholds** — the paper's searched optimum is σ₁ = 0.7,
  σ₂ = 0.1.  How sensitive is the population bias to that choice?
* **aggregation rule** — the paper adopts FedVC's uniform averaging (eq. 1);
  compare against classical sample-weighted FedAvg on equal-size clients
  (they must coincide) to validate the implementation.
* **registry sparsity vs client count** — §6.3.3 argues sparsity "can be
  alleviated with the increase of total number of clients"; measure it.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import print_table
from repro.core import DubheConfig, DubheSelector, RandomSelector
from repro.data import EMDTargetPartitioner, half_normal_class_proportions
from repro.federated.aggregation import average_states, weighted_average_states

RHO = 10.0
EMD_AVG = 1.5
K = 20
ROUNDS = 40


def _federation(n_clients: int, seed: int = 20):
    global_dist = half_normal_class_proportions(10, RHO)
    partition = EMDTargetPartitioner(n_clients, 128, EMD_AVG, seed=seed).partition(global_dist)
    return partition.client_distributions()


def _mean_bias(selector, rounds: int = ROUNDS) -> float:
    return float(np.mean([selector.bias_of(selector.select(r)) for r in range(rounds)]))


@pytest.mark.benchmark(group="ablation")
def test_ablation_reference_set(benchmark):
    """G = {1, 10} vs {1, 2, 10} vs {1, 2, 3, 10}: the pair block matters."""
    distributions = _federation(500)

    def experiment():
        results = {}
        for ref, thresholds in (
            ((1, 10), {1: 0.7, 10: 0.0}),
            ((1, 2, 10), {1: 0.7, 2: 0.1, 10: 0.0}),
            ((1, 2, 3, 10), {1: 0.7, 2: 0.2, 3: 0.1, 10: 0.0}),
        ):
            config = DubheConfig(num_classes=10, reference_set=ref, thresholds=thresholds,
                                 participants_per_round=K, seed=21)
            results[ref] = _mean_bias(DubheSelector(distributions, config, seed=21))
        results["random"] = _mean_bias(RandomSelector(distributions, K, seed=21))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Ablation: reference set G", [
        {"reference_set": str(ref), "mean_bias": round(bias, 4)}
        for ref, bias in results.items()
    ])

    # any Dubhe variant beats random; the paper's G is not worse than the
    # single-class-only variant
    for ref in ((1, 10), (1, 2, 10), (1, 2, 3, 10)):
        assert results[ref] < results["random"]
    assert results[(1, 2, 10)] <= results[(1, 10)] + 0.05


@pytest.mark.benchmark(group="ablation")
def test_ablation_threshold_sensitivity(benchmark):
    """Population bias as a function of the σ₁ threshold (σ₂ fixed at 0.1)."""
    distributions = _federation(500)

    def experiment():
        results = {}
        for sigma1 in (0.3, 0.5, 0.7, 0.9):
            config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                                 thresholds={1: sigma1, 2: 0.1, 10: 0.0},
                                 participants_per_round=K, seed=22)
            results[sigma1] = _mean_bias(DubheSelector(distributions, config, seed=22))
        results["random"] = _mean_bias(RandomSelector(distributions, K, seed=22))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Ablation: σ₁ sensitivity (σ₂ = 0.1)", [
        {"sigma1": s, "mean_bias": round(b, 4)} for s, b in results.items()
    ])
    # every threshold choice in the sensible range still beats random — the
    # parameter search refines, it is not load-bearing for the main claim
    for sigma1 in (0.3, 0.5, 0.7, 0.9):
        assert results[sigma1] < results["random"]


@pytest.mark.benchmark(group="ablation")
def test_ablation_aggregation_rules(benchmark):
    """Uniform (eq. 1) and sample-weighted FedAvg coincide for equal-size clients."""
    rng = np.random.default_rng(23)
    states = [{"w": rng.normal(size=(8, 4)), "b": rng.normal(size=4)} for _ in range(10)]

    def experiment():
        uniform = average_states(states)
        weighted_equal = weighted_average_states(states, [128] * len(states))
        weighted_skewed = weighted_average_states(states, list(range(1, len(states) + 1)))
        return uniform, weighted_equal, weighted_skewed

    uniform, weighted_equal, weighted_skewed = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    for key in uniform:
        np.testing.assert_allclose(uniform[key], weighted_equal[key], atol=1e-12)
    # but the two rules genuinely differ once client sizes differ
    assert any(
        not np.allclose(uniform[key], weighted_skewed[key]) for key in uniform
    )
    print("\nAblation: eq. (1) uniform averaging == weighted FedAvg for equal-size "
          "virtual clients (validated); they diverge for unequal sizes (validated).")


@pytest.mark.benchmark(group="ablation")
def test_ablation_registry_sparsity_vs_clients(benchmark):
    """§6.3.3: more clients → fewer never-dominated classes → lower bias."""

    def experiment():
        rows = []
        for n_clients in (100, 500, 2000):
            distributions = _federation(n_clients, seed=24)
            config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                                 thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                                 participants_per_round=K, seed=24)
            selector = DubheSelector(distributions, config, seed=24)
            single = selector.overall_registry[selector.codebook.block_slice(1)]
            pair = selector.overall_registry[selector.codebook.block_slice(2)]
            dominated = single.copy()
            for j, category in enumerate(selector.codebook.block_categories(2)):
                for c in category:
                    dominated[c] += pair[j]
            rows.append({
                "n_clients": n_clients,
                "never_dominated_classes": int(np.sum(dominated == 0)),
                "mean_bias": round(_mean_bias(selector, rounds=20), 4),
            })
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Ablation: registry sparsity vs total client count (§6.3.3)", rows)

    sparsity = [row["never_dominated_classes"] for row in rows]
    assert sparsity[-1] <= sparsity[0]
    assert rows[-1]["mean_bias"] <= rows[0]["mean_bias"] + 0.05
