"""Scale regression suite: N = 10^5 memory bounds and equivalence.

Two families of guarantees keep the million-client path honest:

* **memory** — streaming registration holds peak allocation to O(batch)
  and one ``register_batch`` call to its outputs plus O(block) scratch,
  asserted via ``tracemalloc`` against generous-but-fixed ceilings.  An
  accidental ``list(...)`` materialisation of per-client results (or one-hot
  registries) at N = 10^5 allocates an order of magnitude more than the
  ceiling and fails here before it reaches CI's nightly N = 10^6 sweep.
* **equivalence** — the vectorised probability / greedy / tentative-draw
  rewrites match the original per-client reference implementations (kept
  verbatim in this file) element-for-element on seeded draws at N = 10^5,
  and registration/probabilities are equivariant under client reordering.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import DubheConfig
from repro.core.probability import (
    VolunteerDraw,
    expected_participants,
    participation_probability,
)
from repro.core.registry import RegistryCodebook
from repro.core.secure import SecureRegistrationRound
from repro.core.selectors import DubheSelector, GreedySelector
from repro.crypto import generate_keypair
from repro.crypto.packing import PackingScheme

N_LARGE = 100_000
BATCH = 4096

#: Fixed ceiling for streaming plaintext registration at N = 10^5 with the
#: default batch size: the measured peak is ~1.1 MB, an accidental one-hot
#: materialisation alone is ≥ 44 MB.  Generous headroom, but any O(N) slip
#: trips it.
STREAM_CEILING_BYTES = 16 * 2**20

#: Scratch allowance for one register_batch call over N = 2·10^5 rows on
#: top of its two (N,) int64 outputs: the row-block walk needs ~1 MB, a
#: full (N, C) float copy alone is 16 MB.
BATCH_SCRATCH_BYTES = 2 * 2**20

#: Fixed ceiling for the secure streaming rounds below (N ≤ 2048, 40-bit toy
#: key, count packing, batch 512): streaming peaks under 1 MB; holding
#: every client's ciphertext vector or one-hot registry would not fit.
SECURE_STREAM_CEILING_BYTES = 8 * 2**20

#: What ``SecureRegistrationRound.run_stream`` holds per client, read off
#: the code: each batch's int64 ``blocks`` and ``indices`` parts stay in
#: ``blocks_parts`` / ``index_parts`` until the end (16 B), where
#: ``np.concatenate`` copies both into the returned registration while
#: the parts are still alive (16 B more).
SECURE_STREAM_BYTES_PER_CLIENT = 2 * 8 + 2 * 8

#: Bookkeeping that grows with N but not per client, for the doubling
#: N = 1024 → 2048 at batch 512 below: two more batches, each adding two
#: part arrays (a 112 B ndarray header and an 8 B list slot each, 480 B
#: in all), and one more digit of the arity-2 tree fold, which keeps one
#: more partial ciphertext vector alive (six 80-bit ciphertexts, their
#: list and the vector object: about 0.5 kB).  Rounded up to 4 kB.
SECURE_STREAM_BOOKKEEPING_BYTES = 4 * 2**10


def scale_config(k=1000, batch=BATCH, key_size=32, reference_set=(1, 2, 10)):
    thresholds = {1: 0.7, 10: 0.0}
    if 2 in reference_set:
        thresholds[2] = 0.1
    return DubheConfig(num_classes=10, reference_set=reference_set,
                       thresholds=thresholds, participants_per_round=k,
                       tentative_selections=4, key_size=key_size,
                       registration_batch_size=batch)


def skewed_population(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(10, 0.3), size=n)


class TestStreamingMemory:
    def test_streaming_registration_peak_is_o_batch(self):
        config = scale_config()
        codebook = RegistryCodebook(config)
        # the ceiling must be far below what any O(N) materialisation costs,
        # or this test has no teeth
        one_hot_bytes = N_LARGE * codebook.length * 8
        assert one_hot_bytes > 2 * STREAM_CEILING_BYTES
        rng = np.random.default_rng(1)
        counts = np.zeros(codebook.length)
        tracemalloc.start()
        tracemalloc.reset_peak()
        remaining = N_LARGE
        while remaining:
            b = min(BATCH, remaining)
            chunk = rng.dirichlet(np.full(10, 0.3), size=b)
            batch = codebook.register_batch(chunk)
            counts += np.bincount(batch.indices, minlength=codebook.length)
            remaining -= b
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert counts.sum() == N_LARGE
        assert peak < STREAM_CEILING_BYTES, (
            f"streaming registration peaked at {peak / 2**20:.1f} MB "
            f"(> {STREAM_CEILING_BYTES / 2**20:.0f} MB ceiling): something "
            "is materialising O(N) state"
        )

    def test_one_shot_registration_scratch_is_o_block(self):
        n = 2 * N_LARGE
        codebook = RegistryCodebook(scale_config())
        distributions = skewed_population(n, seed=4)
        tracemalloc.start()
        tracemalloc.reset_peak()
        batch = codebook.register_batch(distributions)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        outputs = batch.blocks.nbytes + batch.indices.nbytes
        assert peak < outputs + BATCH_SCRATCH_BYTES, (
            f"register_batch peaked at {peak / 2**20:.1f} MB for "
            f"{outputs / 2**20:.1f} MB of outputs: its scratch is O(N·C)"
        )

    def test_secure_run_stream_peak_is_o_batch(self):
        # two N with the same batch: the O(batch) scratch (one batch's
        # registries and ciphertexts, the previous batch's ciphertexts) is
        # the same at both, so the peak may grow only by what run_stream
        # holds per client.  Both N must share the packing geometry, since
        # the headroom (max_weight = N) sets the slot width: a 40-bit key
        # packs two counts per ciphertext for any N from 1024 to 4096, where
        # a 32-bit key packs two at N = 1024 and one or two at N = 2048.
        config = scale_config(k=64, batch=512, key_size=40,
                              reference_set=(1, 10))
        small, large = 1024, 2048
        codebook = RegistryCodebook(config)
        public_key, _ = generate_keypair(key_size=config.key_size)
        geometry = {n: PackingScheme.for_counts(public_key, codebook.length,
                                                max_weight=n).num_ciphertexts
                    for n in (small, large)}
        assert geometry[small] == geometry[large]
        peaks = {}
        for n in (small, large):
            distributions = skewed_population(n, seed=2)
            round_ = SecureRegistrationRound(config, packed=True,
                                             aggregation="tree")
            tracemalloc.start()
            tracemalloc.reset_peak()
            streamed = round_.run_stream(distributions)
            _, peaks[n] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert streamed.n_clients == n
            assert streamed.overall.sum() == n
            assert peaks[n] < SECURE_STREAM_CEILING_BYTES, (
                f"secure streaming peaked at {peaks[n] / 2**20:.1f} MB at "
                f"N = {n}: the round is holding more than O(batch) "
                "ciphertexts or registries"
            )
        allowed = (SECURE_STREAM_BYTES_PER_CLIENT * (large - small)
                   + SECURE_STREAM_BOOKKEEPING_BYTES)
        growth = peaks[large] - peaks[small]
        assert growth <= allowed, (
            f"secure streaming peak grew by {growth} B from N = {small} to "
            f"{large}, more than the {allowed} B of per-client index arrays "
            "run_stream holds: something else is O(N)"
        )


class TestLargeNEquivalence:
    @pytest.fixture(scope="class")
    def setup(self):
        config = scale_config()
        distributions = skewed_population(N_LARGE, seed=3)
        selector = DubheSelector(distributions, config, seed=11)
        return config, distributions, selector

    def test_probabilities_match_scalar_reference(self, setup):
        config, _, selector = setup
        overall = selector.overall_registry
        k = config.participants_per_round
        sample = np.random.default_rng(4).choice(N_LARGE, size=2000,
                                                 replace=False)
        for idx in sample:
            expected = participation_probability(
                overall, int(selector.registration_batch.indices[idx]), k)
            assert selector.probabilities[idx] == expected  # bit-identical

    def test_probability_identities_hold(self, setup):
        config, _, selector = setup
        overall = selector.overall_registry
        k = config.participants_per_round
        # eq. (7): E|S_t| == K when nothing saturates; vectorised == manual
        manual = sum(
            float(c) * min(1.0, k / (float(c) * np.count_nonzero(overall)))
            for c in overall[overall > 0]
        )
        assert expected_participants(overall, k) == pytest.approx(manual)
        if selector.probabilities.max() < 1.0:
            assert expected_participants(overall, k) == pytest.approx(k)
        # every client in a category shares one probability
        indices = selector.registration_batch.indices
        assert np.array_equal(
            selector.probabilities,
            np.minimum(1.0, k / (overall[indices] * np.count_nonzero(overall))),
        )

    def test_tentative_draw_matches_list_reference(self, setup):
        config, _, selector = setup

        def reference_draw(probabilities, n_clients, k, rng):
            # the original list-based draw, kept verbatim as the reference
            volunteers = VolunteerDraw(probabilities)(rng)
            pool = list(int(v) for v in volunteers)
            if len(pool) > k:
                keep = rng.choice(len(pool), size=k, replace=False)
                pool = [pool[i] for i in keep]
            elif len(pool) < k:
                outside = np.setdiff1d(np.arange(n_clients),
                                       np.asarray(pool, dtype=int))
                extra = rng.choice(outside, size=k - len(pool), replace=False)
                pool.extend(int(e) for e in extra)
            return pool

        k = config.participants_per_round
        for seed in (0, 1, 2):
            rng_ref = np.random.default_rng(seed)
            expected = reference_draw(selector.probabilities, N_LARGE, k,
                                      rng_ref)
            fresh = DubheSelector(selector.client_distributions, config,
                                  seed=seed)
            draw = fresh._tentative_draw(0)
            assert len(draw) == k
            assert [int(c) for c in draw] == expected

    def test_select_matches_reference_draw_pipeline(self, setup):
        config, distributions, _ = setup

        class ReferenceDubheSelector(DubheSelector):
            def _tentative_draw(self, _h):
                volunteers = VolunteerDraw(self.probabilities)(self.rng)
                pool = list(int(v) for v in volunteers)
                k = self.participants_per_round
                if len(pool) > k:
                    keep = self.rng.choice(len(pool), size=k, replace=False)
                    pool = [pool[i] for i in keep]
                elif len(pool) < k:
                    outside = np.setdiff1d(np.arange(self.n_clients),
                                           np.asarray(pool, dtype=int))
                    extra = self.rng.choice(outside, size=k - len(pool),
                                            replace=False)
                    pool.extend(int(e) for e in extra)
                return pool

        vectorised = DubheSelector(distributions, config, seed=42)
        reference = ReferenceDubheSelector(distributions, config, seed=42)
        for round_index in range(3):
            picked = vectorised.select(round_index)
            expected = reference.select(round_index)
            assert picked == expected
            assert all(isinstance(c, int) for c in picked)
            assert vectorised.last_bias == reference.last_bias

    def test_greedy_matches_shrinking_reference(self):
        distributions = skewed_population(N_LARGE, seed=5)
        k = 16

        def reference_greedy(distributions, k, rng):
            # pre-rewrite greedy: re-normalise the full candidate population
            # for every remaining client at every pick
            n = distributions.shape[0]
            uniform = np.full(distributions.shape[1],
                              1.0 / distributions.shape[1])
            log_uniform = np.log(uniform)
            first = int(rng.integers(n))
            selected = [first]
            running = distributions[first].copy()
            available = np.ones(n, dtype=bool)
            available[first] = False
            while len(selected) < k:
                candidate_pop = running[None, :] + distributions
                candidate_pop /= candidate_pop.sum(axis=1, keepdims=True)
                np.clip(candidate_pop, 1e-12, None, out=candidate_pop)
                kl = np.sum(candidate_pop * (np.log(candidate_pop)
                                             - log_uniform), axis=1)
                kl[~available] = np.inf
                best = int(np.argmin(kl))
                selected.append(best)
                running += distributions[best]
                available[best] = False
            return selected

        selector = GreedySelector(distributions, k, seed=7)
        expected = reference_greedy(distributions, k,
                                    np.random.default_rng(7))
        assert selector.select(0) == expected

    def test_registration_and_probabilities_are_permutation_equivariant(
            self, setup):
        config, distributions, selector = setup
        perm = np.random.default_rng(8).permutation(N_LARGE)
        permuted = DubheSelector(distributions[perm], config, seed=11)
        assert np.array_equal(permuted.registration_batch.indices,
                              selector.registration_batch.indices[perm])
        assert np.array_equal(permuted.overall_registry,
                              selector.overall_registry)
        assert np.array_equal(permuted.probabilities,
                              selector.probabilities[perm])

    def test_expected_pool_size_tracks_k(self, setup):
        config, _, selector = setup
        draws = [selector._tentative_draw(h) for h in range(5)]
        assert {len(d) for d in draws} == {config.participants_per_round}
