"""Figure 6 at the paper's N and K — Dubhe beats random selection.

Paper claim (Fig. 6 and Table 2, §6.2): at ρ = 10 Dubhe tracks greedy
selection and reaches a higher test accuracy than random selection.
``test_fig6_accuracy_curves.py`` checks only that Dubhe is "not much worse"
than random at N = 80 and K = 10; this module asserts the claim itself at
N = 1000 and K = 20, over five seeds fixed before the first run.

Protocol, per seed s ∈ {0, …, 4}: the ``repro.ledger.recipes:federation``
recipe with ``dataset="mnist", rho=10, emd_avg=1.5, n_clients=1000,
samples_per_client=32, participants=20, hidden=32, test_per_class=20,
seed=s, model_seed=s + 11``, 200 rounds evaluated every 10th, Adam at
3e-3, scored by ``tail_average_accuracy(5)``.  The test asserts that the
mean paired difference Dubhe − random is positive and that its one-sided
95 % Student-t lower bound (four degrees of freedom) is positive too.  It
prints greedy − Dubhe and asserts nothing about it: how close Dubhe gets
to greedy depends on the thresholds, which the threshold search has not
settled.

ρ = 1 is absent on purpose.  With the synthetic generators' defaults an MLP
reaches 0.99–1.00 accuracy under every selector at ρ = 1, so there is no
gap to assert; that point needs a harder dataset preset first.
"""

from __future__ import annotations

import math

import numpy as np

from helpers import print_table
from repro import FederatedConfig, LocalTrainingConfig, Session

SEEDS = (0, 1, 2, 3, 4)
SELECTORS = ("random", "dubhe", "greedy")
ROUNDS = 200
EVAL_EVERY = 10
TAIL = 5

#: the 0.95 quantile of Student's t with len(SEEDS) - 1 = 4 degrees of freedom
T95_DF4 = 2.131846786


def paper_scale() -> dict:
    return {"dataset": "MNIST-10/1.5", "n_clients": 1000, "k": 20,
            "rounds": ROUNDS, "seeds": SEEDS}


def tail_accuracy(selector: str, seed: int) -> float:
    config = FederatedConfig(rounds=ROUNDS, eval_every=EVAL_EVERY, seed=seed,
                             local=LocalTrainingConfig(learning_rate=3e-3))
    history = Session(config).with_recipe(
        "repro.ledger.recipes:federation", dataset="mnist", rho=10.0,
        emd_avg=1.5, n_clients=1000, samples_per_client=32, participants=20,
        selector=selector, hidden=32, test_per_class=20, seed=seed,
        model_seed=seed + 11).run().history
    return history.tail_average_accuracy(TAIL)


def test_dubhe_beats_random_at_paper_scale():
    acc = {(name, seed): tail_accuracy(name, seed)
           for seed in SEEDS for name in SELECTORS}
    gain = np.array([acc["dubhe", s] - acc["random", s] for s in SEEDS])
    behind_greedy = np.array([acc["greedy", s] - acc["dubhe", s]
                              for s in SEEDS])
    rows = [{"seed": s,
             **{name: f"{acc[name, s]:.3f}" for name in SELECTORS},
             "dubhe-random": f"{gain[i]:+.3f}",
             "greedy-dubhe": f"{behind_greedy[i]:+.3f}"}
            for i, s in enumerate(SEEDS)]
    mean = float(gain.mean())
    lower = mean - T95_DF4 * float(gain.std(ddof=1)) / math.sqrt(len(SEEDS))
    rows.append({"seed": "mean", "dubhe-random": f"{mean:+.3f}",
                 "greedy-dubhe": f"{float(behind_greedy.mean()):+.3f}"})
    print_table(f"Figure 6 at N=1000, K=20: MNIST-10/1.5 tail accuracy "
                f"(last {TAIL} evaluations of {ROUNDS} rounds); one-sided "
                f"95% lower bound on Dubhe - random: {lower:+.3f}", rows)
    assert mean > 0
    assert lower > 0
