"""The packed selector against its per-component reference, and its headroom.

``SecureDubheSelector`` speaks packed ciphertexts only.  Packing is an
encoding of the same fixed-point integers, so everything it decrypts must be
the very floats the per-component path (``tests/_per_component_scorer.py``)
decrypts — try for try — and the cohorts must be the plaintext
``DubheSelector``'s.  The second half pins the slot headroom the scorer
declares (``max_weight = K``): enough for K additions, an error beyond.
"""

import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples
from _per_component_scorer import PerComponentScorer
from repro.core.config import DubheConfig
from repro.core.multitime import multi_time_selection
from repro.core.secure import (SecureAggregationServer, SecureClient,
                               SecureDistributionAggregation)
from repro.core.secure_selector import SecureDubheSelector
from repro.core.selectors import DubheSelector
from repro.crypto.keyagent import KeyAgent
from repro.crypto.paillier import generate_keypair

C = 10


def group1_config(k, h, key_size):
    return DubheConfig(num_classes=C, reference_set=(1, 2, 10),
                       thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                       participants_per_round=k, tentative_selections=h,
                       key_size=key_size, registration_batch_size=7)


def check_equivalence(key_size, n, k, h, seed, rounds=2):
    distributions = np.random.default_rng(seed).dirichlet(np.full(C, 0.3), size=n)
    config = group1_config(k, h, key_size)
    secure = SecureDubheSelector(
        distributions, config, seed=seed,
        agent=KeyAgent(key_size, rng=random.Random(seed)))
    plaintext = DubheSelector(distributions, config, seed=seed)
    # the reference: the plaintext selector's draws, scored per component
    drawer = DubheSelector(distributions, config, seed=seed)
    scorer = PerComponentScorer(config, KeyAgent(key_size, rng=random.Random(seed + 1)))

    # run_stream registration ≡ plaintext registration, no tolerance
    assert np.array_equal(secure.overall_registry, plaintext.overall_registry)
    assert np.array_equal(secure.probabilities, plaintext.probabilities)

    for r in range(rounds):
        cohort = secure.select(r)
        assert cohort == plaintext.select(r)
        reference = multi_time_selection(
            draw=drawer._tentative_draw,
            population_of=partial(scorer.population, distributions),
            uniform=drawer.uniform, tries=h)
        assert len(secure.last_result.tries) == h
        for ours, theirs in zip(secure.last_result.tries, reference.tries):
            assert ours.candidate == theirs.candidate
            assert np.array_equal(ours.population, theirs.population)
            assert ours.score == theirs.score
        assert secure.last_bias == reference.best_score
        # fixed point is ~1e-13 away from the float mean, and no further
        assert abs(secure.last_bias - plaintext.last_bias) <= 1e-9
    # the reference really is the one-ciphertext-per-class path
    assert set(scorer.ciphertexts_per_upload) == {C}


class TestPackedEqualsPerComponent:
    @pytest.mark.parametrize("key_size", [128, 256, 512])
    def test_benchmark_shape(self, key_size):
        # the select_secure workload's seeded inputs (N=64, K=16, H=4, seed 7)
        check_equivalence(key_size, n=64, k=16, h=4, seed=7, rounds=1)

    @settings(max_examples=scaled_max_examples(8), deadline=None)
    @given(key_size=st.sampled_from([128, 256, 512]),
           n=st.integers(4, 24), k_fraction=st.floats(0.05, 1.0),
           h=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_any_shape(self, key_size, n, k_fraction, h, seed):
        k = max(1, int(n * k_fraction))
        check_equivalence(key_size, n, k, h, seed)


class TestHeadroom:
    """``max_weight = K`` holds K additions exactly; one more is an error."""

    @pytest.mark.parametrize("key_size", [128, 256])
    @pytest.mark.parametrize("k", [1, 2, 16, 37])
    def test_all_mass_on_one_class_never_carries(self, key_size, k):
        # the largest value a slot can be sent, K times over, for every class
        config = group1_config(k, 1, key_size)
        scorer = SecureDistributionAggregation(
            config, agent=KeyAgent(key_size, rng=random.Random(k)))
        public_key = scorer.keypair.public_key
        for hot in range(C):
            distributions = np.zeros((k, C))
            distributions[:, hot] = 1.0
            expected = np.zeros(C)
            expected[hot] = 1.0
            assert np.array_equal(scorer.population(distributions, range(k)), expected)
            # un-normalised: exactly K in the hot slot, 0.0 in every other
            server = SecureAggregationServer(public_key)
            for i in range(k):
                server.receive(SecureClient(i, distributions[i], packed=True, max_weight=k)
                               .encrypted_distribution(public_key))
            total = server.aggregate()
            assert len(total.ciphertexts) < C
            assert np.array_equal(total.decrypt(scorer.keypair.private_key),
                                  k * expected)

    @pytest.mark.parametrize("aggregation", ["flat", "tree"])
    def test_cohort_beyond_the_headroom_raises(self, aggregation):
        k = 4
        keypair = generate_keypair(256, rng=random.Random(9))
        server = SecureAggregationServer(keypair.public_key, aggregation=aggregation)
        uploads = [SecureClient(i, np.full(C, 0.1), packed=True, max_weight=k)
                   .encrypted_distribution(keypair.public_key) for i in range(k + 1)]
        for upload in uploads[:k]:
            server.receive(upload)
        total = server.aggregate()
        assert total.weight == k
        assert np.allclose(total.decrypt(keypair.private_key), np.full(C, 0.1 * k))
        # the (K+1)-th upload would need a wider slot: refused, never wrapped
        # (the flat fold refuses on receipt, the tree when it merges)
        with pytest.raises(OverflowError):
            server.receive(uploads[k])
            server.aggregate()

    def test_no_mass_scores_like_plaintext(self):
        # an all-empty cohort is maximally biased, never "perfectly uniform"
        config = group1_config(2, 1, 128)
        scorer = SecureDistributionAggregation(
            config, agent=KeyAgent(128, rng=random.Random(1)))
        empty = np.zeros((2, C))
        assert np.array_equal(scorer.population(empty, [0, 1]), np.zeros(C))
        assert scorer.score_selection(empty, [0, 1]) == pytest.approx(1.0)
