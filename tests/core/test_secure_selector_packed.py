"""The packed selector against its per-component reference, and its headroom.

``SecureDubheSelector`` speaks packed ciphertexts only.  Packing is an
encoding of the same fixed-point integers, so everything it decrypts must be
the very floats the per-component path
(``tests/reference/per_component_scorer.py``) decrypts — try for try — and
the cohorts must be the plaintext ``DubheSelector``'s.  The second part pins the slot headroom the scorer
declares (``max_weight = K``): enough for K additions, an error beyond.  The
third pins the key epoch: a client encrypts ``p_l`` once per round key and
re-sends that ciphertext on every later try — same messages and bytes, same
decrypted sums as the reference that re-encrypts every try.
"""

import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples
from reference.per_component_scorer import PerComponentScorer
from repro.core import secure
from repro.core.config import DubheConfig
from repro.core.multitime import multi_time_selection
from repro.core.secure import (SecureAggregationServer, SecureClient,
                               SecureDistributionAggregation)
from repro.core.secure_selector import SecureDubheSelector
from repro.core.selectors import DubheSelector
from repro.crypto.keyagent import KeyAgent
from repro.crypto.packing import PackingScheme
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
            populations_of=partial(scorer.populations, distributions),
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

    @settings(STANDARD, max_examples=scaled_max_examples(8))
    @given(key_size=st.sampled_from([128, 256, 512]),
           n=st.integers(4, 24), k_fraction=st.floats(0.05, 1.0),
           h=st.integers(1, 3), seed=st.integers(0, 2**16))
    # round 1, tries 0 and 2: the same nine members in another order.  Their
    # integer sums tie under encryption; the plaintext float means used to
    # differ by an ulp, so the two selectors returned the set in two orders
    @example(key_size=128, n=10, k_fraction=0.9375, h=3, seed=65536)
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
                server.receive(SecureClient(i, distributions[i], max_weight=k)
                               .encrypted_distribution(public_key))
            total = server.aggregate()
            assert len(total.ciphertexts) < C
            assert np.array_equal(total.decrypt(scorer.keypair.private_key),
                                  k * expected)

    @pytest.mark.parametrize("arity", [None, 2], ids=["flat", "tree"])
    def test_cohort_beyond_the_headroom_raises(self, arity):
        k = 4
        keypair = generate_keypair(256, rng=random.Random(9))
        server = SecureAggregationServer(keypair.public_key, arity=arity)
        uploads = [SecureClient(i, np.full(C, 0.1), max_weight=k)
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
        population = scorer.population(empty, [0, 1])
        assert np.array_equal(population, np.zeros(C))
        assert np.abs(population - 1.0 / C).sum() == pytest.approx(1.0)


class TestKeyEpoch:
    """``p_l`` is encrypted once per round key; every later try re-sends it."""

    N, K, H, KEY = 12, 5, 3, 128

    @pytest.fixture
    def encryptions(self, monkeypatch):
        """The ``p_l`` rows handed to ``encrypt_one``, in call order."""
        rows = []
        original = secure.encrypt_one

        def counting(public_key, values, *args, **kwargs):
            rows.append(np.array(values))
            return original(public_key, values, *args, **kwargs)

        monkeypatch.setattr(secure, "encrypt_one", counting)
        return rows

    def selector(self, distributions, seed=5):
        return SecureDubheSelector(
            distributions, group1_config(self.K, self.H, self.KEY), seed=seed,
            agent=KeyAgent(self.KEY, rng=random.Random(seed)))

    @pytest.fixture
    def distributions(self):
        return np.random.default_rng(5).dirichlet(np.full(C, 0.3), size=self.N)

    def test_one_encryption_per_client_per_epoch(self, distributions, encryptions):
        selector = self.selector(distributions)
        scorer = selector._scorer
        public_key = scorer.keypair.public_key
        per_upload = PackingScheme(public_key, C, max_weight=self.K).num_ciphertexts
        upload_bytes = per_upload * public_key.ciphertext_bytes()
        drawn = set()
        for r in range(4):
            before = selector.stats
            selector.select(r)
            after = selector.stats
            drawn.update(k for t in selector.last_result.tries for k in t.candidate)
            # the wire does not know about the cache: K uploads in, K folded,
            # on each of the H tries, every one the full ciphertext size
            assert after.messages - before.messages == 2 * self.K * self.H
            assert (after.ciphertext_bytes - before.ciphertext_bytes
                    == 2 * self.K * self.H * upload_bytes)
            # ... while only the clients not drawn before did any encrypting
            assert len(encryptions) == len(drawn) <= self.N
            assert scorer.noise.generated == len(drawn) * per_upload
        assert len(drawn) > self.K          # several cohorts, not one repeated
        assert selector._scorer is scorer   # one scorer, one key, all rounds
        # each client encrypted its own row, once
        assert len({row.tobytes() for row in encryptions}) == len(encryptions)

    def test_changed_row_or_headroom_re_encrypts(self, distributions, encryptions):
        config = group1_config(self.K, self.H, self.KEY)
        scorer = SecureDistributionAggregation(
            config, agent=KeyAgent(self.KEY, rng=random.Random(1)))
        reference = PerComponentScorer(
            config, KeyAgent(self.KEY, rng=random.Random(2)))
        cohort = [0, 3, 4, 7, 9]

        def check(rows, expected_encryptions):
            ours = scorer.population(rows, cohort)
            assert np.array_equal(ours, reference.population(rows, cohort))
            assert len(encryptions) == expected_encryptions

        check(distributions, 5)
        spent = scorer.stats.encrypt_seconds
        check(distributions, 5)                  # all five re-sent ...
        assert 0 < spent == scorer.stats.encrypt_seconds   # ... at no crypto cost
        assert scorer.stats.messages == 2 * (2 * 5)
        check(distributions[:, ::-1].copy(), 10)  # every row changed
        changed = distributions.copy()
        changed[3] = distributions[4]            # one client's data drifts
        check(distributions, 15)
        check(changed, 16)
        assert np.array_equal(encryptions[-1], distributions[4])
        changed[7, :2] = changed[7, 1::-1]       # in place, behind its back
        check(changed, 17)
        check(changed[:, :], 17)                 # another view, same bytes
        # another cohort size is another headroom: nothing made for K = 5 fits
        ours = scorer.population(changed, cohort[:4])
        assert np.array_equal(ours, reference.population(changed, cohort[:4]))
        assert len(encryptions) == 21

    def test_register_starts_a_new_epoch(self, distributions, encryptions):
        selector = self.selector(distributions)
        selector.select(0)
        old_scorer, old_key = selector._scorer, selector._scorer.keypair.public_key
        first_epoch = len(encryptions)
        old_uploads = [c._upload for c in old_scorer._clients.values()]
        selector.refresh_registrations()
        assert selector._scorer is not old_scorer
        assert selector._scorer.keypair.public_key != old_key
        assert selector._scorer._clients == {}
        # same rng stream as a plaintext selector that re-registered too
        plaintext = DubheSelector(distributions, selector.config, seed=5)
        plaintext.select(0)
        plaintext.refresh_registrations(distributions)
        assert selector.select(1) == plaintext.select(1)
        # everyone drawn encrypts again, under the new key only
        redrawn = {k for t in selector.last_result.tries for k in t.candidate}
        assert len(encryptions) == first_epoch + len(redrawn)
        new_uploads = [c._upload for c in selector._scorer._clients.values()]
        assert all(u.public_key == selector._scorer.keypair.public_key
                   for u in new_uploads)
        assert not ({id(u) for u in new_uploads} & {id(u) for u in old_uploads})

    @pytest.mark.parametrize("arity", [None, 2], ids=["flat", "tree"])
    def test_folding_never_touches_a_kept_upload(self, distributions, arity):
        keypair = generate_keypair(self.KEY, rng=random.Random(3))
        clients = [SecureClient(k, distributions[k], max_weight=self.K)
                   for k in range(self.K)]
        uploads = [c.encrypted_distribution(keypair.public_key) for c in clients]
        frozen = [(list(u.ciphertexts), u.weight) for u in uploads]
        sums = []
        for _ in range(3):
            server = SecureAggregationServer(keypair.public_key, arity=arity)
            for client, upload in zip(clients, uploads):
                resent = client.encrypted_distribution(keypair.public_key)
                assert resent is upload
                server.receive(resent)
            sums.append(server.aggregate().decrypt(keypair.private_key))
            assert [(u.ciphertexts, u.weight) for u in uploads] == frozen
        assert np.array_equal(sums[0], sums[1]) and np.array_equal(sums[0], sums[2])
        assert [c.stats.messages for c in clients] == [4] * self.K
