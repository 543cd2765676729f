"""Property-based tests of Dubhe's selection invariants.

These back the paper's analytical claims with randomized checks over
arbitrary federations generated by hypothesis: selections always have the
requested size, probabilities always follow eq. (6), the expected number of
participants equals K whenever nothing saturates, and Dubhe never increases
the expected population bias relative to random selection on skewed
federations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro import quick_federation
from repro.core.config import DubheConfig
from repro.core.probability import expected_participants, participation_probabilities
from repro.core.registry import RegistryCodebook
from repro.core.selectors import DubheSelector, GreedySelector, RandomSelector


def _random_federation(n_clients: int, concentration: float, seed: int) -> np.ndarray:
    """Arbitrary client label distributions from a Dirichlet prior."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(10, concentration), size=n_clients)


def _settled_config(k: int) -> DubheConfig:
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k)


@settings(STANDARD, max_examples=scaled_max_examples(25))
@given(
    n_clients=st.integers(min_value=25, max_value=120),
    k=st.integers(min_value=2, max_value=20),
    concentration=st.floats(min_value=0.05, max_value=2.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_selection_size_and_validity(n_clients, k, concentration, seed):
    """Every selector returns exactly K distinct, in-range client indices."""
    k = min(k, n_clients)
    distributions = _random_federation(n_clients, concentration, seed)
    for selector in (
        RandomSelector(distributions, k, seed=seed),
        GreedySelector(distributions, k, seed=seed),
        DubheSelector(distributions, _settled_config(k), seed=seed),
    ):
        selected = selector.select(0)
        assert len(selected) == k
        assert len(set(selected)) == k
        assert all(0 <= c < n_clients for c in selected)


@settings(STANDARD, max_examples=scaled_max_examples(25))
@given(
    n_clients=st.integers(min_value=30, max_value=150),
    k=st.integers(min_value=2, max_value=15),
    concentration=st.floats(min_value=0.05, max_value=2.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_eq6_probabilities_and_eq7_expectation(n_clients, k, concentration, seed):
    """Probabilities follow eq. (6) exactly; E|S| equals K without saturation."""
    distributions = _random_federation(n_clients, concentration, seed)
    config = _settled_config(k)
    codebook = RegistryCodebook(config)
    registrations = codebook.register_batch(distributions)
    overall = registrations.overall_registry()
    probabilities = participation_probabilities(codebook, registrations, overall, k)
    support = int(np.count_nonzero(overall))
    for index, p in zip(registrations.indices, probabilities):
        expected = min(1.0, k / (overall[index] * support))
        assert p == pytest.approx(expected)
    expectation = expected_participants(overall, k)
    assert expectation <= n_clients + 1e-9
    if np.all(overall[overall > 0] * support >= k):
        assert expectation == pytest.approx(k)


@settings(STANDARD, max_examples=scaled_max_examples(10))
@given(seed=st.integers(min_value=0, max_value=200))
def test_property_dubhe_not_worse_than_random_on_skewed_federations(seed):
    """On skewed federations Dubhe's average bias never exceeds random's (+tol)."""
    partition, _ = quick_federation(n_clients=150, samples_per_client=64,
                                    rho=10.0, emd_avg=1.5, seed=seed)
    distributions = partition.client_distributions()
    k = 15
    dubhe = DubheSelector(distributions, _settled_config(k), seed=seed)
    rand = RandomSelector(distributions, k, seed=seed)
    rounds = 12
    dubhe_bias = np.mean([dubhe.bias_of(dubhe.select(r)) for r in range(rounds)])
    random_bias = np.mean([rand.bias_of(rand.select(r)) for r in range(rounds)])
    assert dubhe_bias <= random_bias + 0.05


@settings(STANDARD, max_examples=scaled_max_examples(15))
@given(
    seed=st.integers(min_value=0, max_value=500),
    k=st.integers(min_value=2, max_value=25),
)
def test_property_greedy_is_deterministically_sized_and_low_bias(seed, k):
    """Greedy selection is valid and achieves at most the random-selection bias.

    Compared as averages over several rounds: greedy is stepwise (it fixes
    the best singleton before choosing partners), so a single lucky random
    draw can beat a single greedy one at tiny k — but not on average.
    """
    distributions = _random_federation(80, 0.2, seed)
    k = min(k, 80)
    greedy = GreedySelector(distributions, k, seed=seed)
    rand = RandomSelector(distributions, k, seed=seed)
    rounds = 8
    greedy_bias = []
    for r in range(rounds):
        g = greedy.select(r)
        assert len(set(g)) == k
        greedy_bias.append(greedy.bias_of(g))
    random_bias = [rand.bias_of(rand.select(r)) for r in range(rounds)]
    assert np.mean(greedy_bias) <= np.mean(random_bias) + 0.15
