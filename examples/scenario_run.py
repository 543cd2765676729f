#!/usr/bin/env python
"""Fault-injection scenario: churn + dropouts + stragglers under Dubhe selection.

Runs the same seeded scenario on every requested executor back-end and
verifies the engine's reproducibility contract: each back-end sees identical
planned/actual participation, failure census and skipped rounds (faults are
a pure function of the scenario seed, the round and the client), and each
completes the run.  Per round it prints the paper's metrics — population EMD
``||p_o − p_u||₁`` for the planned and the actually-aggregated cohort — next
to the failures; per run, the census the history reduces it to.

Run it with::

    python examples/scenario_run.py
    python examples/scenario_run.py --backends sequential,vectorized --rounds 8

Used as the CI scenario-smoke gate (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse

from repro import (
    DubheConfig,
    DubheSelector,
    FederatedConfig,
    LocalTrainingConfig,
    ScenarioSpec,
    Session,
    make_uniform_test_set,
    quick_federation,
)
from repro.analysis.emd import baseline_global_bias
from repro.nn.models import MLP
from repro.scenarios import AvailabilitySpec, ChurnSpec, DropoutSpec, StragglerSpec


def build_scenario(n_clients: int) -> ScenarioSpec:
    """Churn + availability + stragglers + dropouts with a 40 % round floor."""
    late_joiners = {n_clients - 1 - i: 2 + i for i in range(3)}
    leavers = {i: 4 + i for i in range(2)}
    return ScenarioSpec(
        churn=ChurnSpec(joins=late_joiners, leaves=leavers),
        availability=AvailabilitySpec(offline_probability=0.1),
        stragglers=StragglerSpec(probability=0.25, mean_delay=4.0, deadline=6.0),
        dropouts=DropoutSpec(probability=0.1),
        min_participation=0.4,
        seed=7,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", default="sequential,vectorized",
                        help="comma-separated executor modes to run and compare")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--participants", type=int, default=8)
    args = parser.parse_args()
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]

    partition, generator = quick_federation(
        n_clients=args.clients, samples_per_client=24, rho=5.0, emd_avg=1.0,
        seed=0)
    test_set = make_uniform_test_set(generator, samples_per_class=5, seed=1)
    distributions = partition.client_distributions()
    dubhe = DubheConfig(num_classes=10, participants_per_round=args.participants,
                        thresholds={1: 0.7, 2: 0.1, 10: 0.0})
    scenario = build_scenario(args.clients)
    print(f"Scenario: churn({len(scenario.churn.joins)} joins, "
          f"{len(scenario.churn.leaves)} leaves), 10% offline, "
          f"25% stragglers (deadline 6s), 10% dropouts, "
          f"participation floor {scenario.min_participation:.0%}, "
          f"seed {scenario.seed}")
    print(f"Baseline bias (full participation): "
          f"{baseline_global_bias(distributions):.4f}\n")

    logs: dict[str, list] = {}
    for mode in backends:
        session = Session(
            FederatedConfig(
                rounds=args.rounds,
                executor_mode=mode,
                local=LocalTrainingConfig(batch_size=8, local_epochs=1,
                                          learning_rate=1e-3),
                seed=0,
            ),
        ).with_federation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(32,), seed=3),
            selector=DubheSelector(distributions, dubhe, seed=0),
            test_set=test_set,
        ).with_scenario(scenario)
        with session:
            history = session.run().history
        assert len(history) == args.rounds, f"{mode} did not complete"
        logs[mode] = ([(r.selected_clients, r.participants, dict(r.failures))
                       for r in history.records],
                      history.failure_counts(), history.skipped_rounds())

        print(f"=== {mode} ===")
        print(f"{'round':>5}  {'EMD planned':>11}  {'EMD actual':>10}  "
              f"{'accuracy':>8}  {'delay':>6}  failures")
        for r, actual in zip(history.records,
                             history.actual_population_biases()):
            failures = (", ".join(f"{k}:{c}" for k, c in sorted(r.failures.items()))
                        or "-")
            skipped = "  [skipped]" if r.aggregation_skipped else ""
            print(f"{r.round_index:>5}  {r.population_bias:>11.4f}  "
                  f"{actual:>10.4f}  {r.test_accuracy:>8.3f}  "
                  f"{r.round_delay:>5.1f}s  {failures}{skipped}")
        print(f"  failures by cause  : {history.failure_counts()}")
        print(f"  skipped rounds     : {history.skipped_rounds()}")
        print(f"  mean actual bias   : "
              f"{history.mean_actual_population_bias():.4f}")
        print(f"  final accuracy     : {history.final_accuracy():.3f}\n")

    reference = backends[0]
    for mode in backends[1:]:
        assert logs[mode] == logs[reference], (
            f"participation, failure census or skipped rounds diverged "
            f"between {reference} and {mode}")
    if len(backends) > 1:
        print(f"OK: identical planned/actual participation, failure census "
              f"and skipped rounds across {', '.join(backends)}")


if __name__ == "__main__":
    main()
