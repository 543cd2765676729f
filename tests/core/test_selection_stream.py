"""The RNG-stream contract of Dubhe's tentative draws.

A seeded :class:`DubheSelector` must keep picking the same cohorts whatever
array tricks its draw uses.  Two guards:

* **golden digests** — SHA-256 over 40 seeded cohorts at N = 10^4 (20
  selections, one re-registration on drifted data, 20 more), captured from
  the mask-based top-up and pinned here;
* **the top-up identity** — drawing ``choice(N − |pool|, m)`` positions and
  mapping them past the pool with ``searchsorted`` returns what
  ``choice(setdiff1d(arange(N), pool), m)`` returns, element for element,
  and leaves the generator in the same state (numpy's ``choice`` samples
  positions from the population size alone).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro.core.config import DubheConfig
from repro.core.selectors import DubheSelector

#: sha256 of the 40 cohorts of :func:`cohort_digest`, one per selector seed
GOLDEN_COHORT_DIGESTS = {
    0: "d33b1c5a390ace9f7207724f2bfbd8b6364169acb985a2b43e5e2c7187a484c8",
    7: "ce6150f1a61f7d4c82907f1f9d58eea6b36c1fe9e41eb6aa5dd59b384576099c",
}


def group1_config(k, h):
    return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h)


def cohort_digest(seed: int) -> str:
    distributions = np.random.default_rng(2024).dirichlet(
        np.full(10, 0.3), size=10_000)
    selector = DubheSelector(distributions, group1_config(100, 4), seed=seed)
    digest = hashlib.sha256()
    for round_index in range(40):
        if round_index == 20:
            selector.refresh_registrations(np.roll(distributions, 1, axis=1))
        cohort = selector.select(round_index)
        digest.update(np.asarray(cohort, dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_COHORT_DIGESTS))
def test_seeded_cohorts_match_golden_digest(seed):
    assert cohort_digest(seed) == GOLDEN_COHORT_DIGESTS[seed]


def reference_draw(probabilities, k, rng):
    """The mask-based draw: Bernoulli, then trim or top up from the complement."""
    pool = np.flatnonzero(rng.random(probabilities.shape) < probabilities)
    if pool.size > k:
        return pool[rng.choice(pool.size, size=k, replace=False)]
    if pool.size < k:
        outside = np.setdiff1d(np.arange(probabilities.size), pool)
        extra = rng.choice(outside, size=k - pool.size, replace=False)
        return np.concatenate([pool, extra])
    return pool


def check_draw(n, k, pool_size, seed):
    """``_tentative_draw`` ≡ :func:`reference_draw` on a pool of *pool_size*."""
    # the probabilities fix the pool: 1 volunteers surely, 0 never does
    probabilities = np.zeros(n)
    chosen = np.random.default_rng(seed).choice(n, pool_size, replace=False)
    probabilities[chosen] = 1.0
    selector = DubheSelector(np.full((n, 2), 0.5), DubheConfig(
        num_classes=2, reference_set=(1, 2), thresholds={1: 0.9, 2: 0.0},
        participants_per_round=k), seed=seed)
    selector.probabilities = probabilities
    rng = np.random.default_rng(seed)
    expected = reference_draw(probabilities, k, rng)
    drawn = selector._tentative_draw(0)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == expected.tolist()
    assert selector.rng.bit_generator.state == rng.bit_generator.state


@settings(STANDARD, max_examples=scaled_max_examples(40))
@given(n=st.one_of(st.integers(min_value=1, max_value=300),
                   # above 10^4 numpy's choice switches to Floyd's algorithm
                   st.integers(min_value=10_001, max_value=30_000)),
       k_share=st.floats(min_value=0.0, max_value=1.0),
       pool_share=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_top_up_positions_match_choice_over_the_complement(
        n, k_share, pool_share, seed):
    check_draw(n, max(1, round(k_share * n)), round(pool_share * n), seed)


@pytest.mark.parametrize("n, k, pool_size", [
    (50, 10, 0),          # empty pool: all K drawn from outside
    (50, 10, 9),          # a pool of K − 1: one top-up client
    (50, 10, 10),         # m = 0: exactly K volunteered, no choice call
    (20_000, 1000, 0),    # Floyd's algorithm over the whole population
    (20_000, 1000, 999),
])
def test_top_up_edge_cases(n, k, pool_size):
    check_draw(n, k, pool_size, seed=n + k + pool_size)
