"""The population leak of multi-time selection, measured as an attack.

Every tentative try hands the server the decrypted population of a cohort
it drew itself, so each try is one linear equation per class:
``Σ_{l ∈ S_t} p_l = K · pop_t``.  Stacking the tries of R rounds and
solving the per-class least-squares system recovers a client's ``p_l``
once ``e_l`` lies in the span of the cohorts drawn — every client once the
stack reaches rank N.  These tests run that attack at the paper's
N = 1000, K = 20, H = 10 and print the recovered fraction against R; the
curve is recorded in ``docs/paper_mapping.md``.
"""

import random

import numpy as np
import pytest

from repro.core.config import DubheConfig
from repro.core.secure_selector import SecureDubheSelector
from repro.core.selectors import DubheSelector
from repro.crypto.keyagent import KeyAgent
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions

N, K, H = 1000, 20, 10
ROUNDS = (25, 50, 100)
#: a recovered p_l lies within this of the true one, class by class
TOLERANCE = 1e-6


def federation(n_clients):
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(n_clients, 64, 1.5, seed=0).partition(
        global_dist)
    return partition.client_distributions()


def config(k, h, key_size=256):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h,
                       key_size=key_size)


def observed_tries(selector, rounds):
    """What the server holds after *rounds*: every try's (cohort, population)."""
    cohorts, populations = [], []
    for round_index in range(rounds):
        selector.select(round_index)
        for attempt in selector.last_result.tries:
            cohorts.append(attempt.candidate)
            populations.append(attempt.population)
    return cohorts, np.array(populations)


def attack(cohorts, populations, n_clients, k):
    """Solve ``A p = K · pop`` per class; return the estimate and rank(A)."""
    membership = np.zeros((len(cohorts), n_clients))
    for row, cohort in enumerate(cohorts):
        membership[row, list(cohort)] = 1.0
    estimate, _, rank, _ = np.linalg.lstsq(membership, k * populations,
                                           rcond=None)
    return estimate, rank


def recovered_fraction(estimate, truth):
    return float(np.mean(np.all(np.abs(estimate - truth) <= TOLERANCE, axis=1)))


def test_secure_selector_reveals_the_plaintext_populations():
    # the attack below runs on the plaintext selector; this is why it may:
    # under encryption the server is handed the same cohorts and populations
    distributions = federation(30)
    secure = SecureDubheSelector(distributions, config(6, 3), seed=7,
                                 agent=KeyAgent(key_size=256,
                                                rng=random.Random(0)))
    plaintext = DubheSelector(distributions, config(6, 3), seed=7)
    for round_index in range(3):
        assert secure.select(round_index) == plaintext.select(round_index)
        for shown, truth in zip(secure.last_result.tries,
                                plaintext.last_result.tries):
            assert shown.candidate == truth.candidate
            assert np.allclose(shown.population, truth.population,
                               rtol=0.0, atol=1e-9)


def test_least_squares_recovers_every_client_at_full_rank():
    distributions = federation(N)
    selector = DubheSelector(distributions, config(K, H), seed=0)
    cohorts, populations = observed_tries(selector, ROUNDS[-1])
    curve = {}
    for rounds in ROUNDS:
        tries = rounds * H
        estimate, rank = attack(cohorts[:tries], populations[:tries], N, K)
        curve[rounds] = (rank, recovered_fraction(estimate, distributions))
        print(f"R = {rounds:3d}: rank {rank:4d} / {N}, "
              f"p_l recovered within {TOLERANCE:g}: {curve[rounds][1]:.1%}")
    # keep drawing rounds until the stacked system reaches rank N
    rounds = ROUNDS[-1]
    rank = curve[rounds][0]
    while rank < N:
        assert rounds < 2 * ROUNDS[-1], f"rank stalled at {rank}"
        more_cohorts, more_populations = observed_tries(selector, 10)
        cohorts += more_cohorts
        populations = np.concatenate([populations, more_populations])
        rounds += 10
        estimate, rank = attack(cohorts, populations, N, K)
    if rounds > ROUNDS[-1]:
        print(f"R = {rounds:3d}: rank {rank:4d} / {N}, "
              f"p_l recovered within {TOLERANCE:g}: "
              f"{recovered_fraction(estimate, distributions):.1%}")
    assert recovered_fraction(estimate, distributions) == 1.0
    # below rank N the system is underdetermined and leaks far less
    assert curve[ROUNDS[0]][1] < 1.0
    fractions = [curve[r][1] for r in ROUNDS]
    assert fractions == sorted(fractions)
