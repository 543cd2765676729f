"""Tests for the participation-probability rules (eq. 6-8) and multi-time selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples

from repro.core.config import DubheConfig
from repro.core.multitime import multi_time_selection
from repro.core.probability import (
    VolunteerDraw,
    expected_category_count,
    expected_participants,
    participation_probabilities,
    participation_probability,
)
from repro.core.registry import RegistryCodebook


def simple_overall(counts):
    """An overall registry with the given per-slot counts."""
    return np.asarray(counts, dtype=float)


def mean_rows(dists):
    """A batch scorer: each candidate's mean distribution, one row per candidate."""
    return lambda cands: np.stack([dists[np.asarray(c)].mean(axis=0) for c in cands])


class TestParticipationProbability:
    def test_formula_matches_eq6(self):
        # two non-empty categories with 5 and 15 clients, K = 4
        overall = simple_overall([5, 15, 0, 0])
        support = 2
        assert participation_probability(overall, 0, 4) == pytest.approx(4 / (5 * support))
        assert participation_probability(overall, 1, 4) == pytest.approx(4 / (15 * support))

    def test_probability_saturates_at_one(self):
        overall = simple_overall([1, 1])
        assert participation_probability(overall, 0, 10) == 1.0

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            participation_probability(simple_overall([0, 0]), 0, 5)

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            participation_probability(simple_overall([0, 3]), 0, 5)

    def test_invalid_k_and_index(self):
        overall = simple_overall([2, 3])
        with pytest.raises(ValueError):
            participation_probability(overall, 0, 0)
        with pytest.raises(IndexError):
            participation_probability(overall, 5, 2)
        # eq. (7)/(8) take the same inputs and refuse them the same way: a
        # negative index would wrap to the last slot, a negative K count down
        overall = simple_overall([3, 0, 5])
        with pytest.raises(IndexError):
            participation_probability(overall, -1, 4)
        with pytest.raises(IndexError):
            expected_category_count(overall, -1, 4)
        with pytest.raises(IndexError):
            expected_category_count(overall, 3, 4)
        with pytest.raises(ValueError):
            expected_category_count(overall, 0, 0)
        with pytest.raises(ValueError):
            expected_participants(overall, -4)
        with pytest.raises(ValueError):
            expected_participants(overall, 0)


class TestExpectationIdentities:
    def test_eq7_expected_participants_equals_k(self):
        # no category saturates: counts are large relative to K
        overall = simple_overall([30, 50, 20, 0, 40])
        k = 10
        assert expected_participants(overall, k) == pytest.approx(k)

    def test_eq8_every_category_contributes_equally(self):
        overall = simple_overall([30, 50, 20, 0, 40])
        k = 10
        support = 4
        for index in (0, 1, 2, 4):
            assert expected_category_count(overall, index, k) == pytest.approx(k / support)
        assert expected_category_count(overall, 3, k) == 0.0

    def test_saturation_caps_contribution(self):
        overall = simple_overall([1, 100])
        k = 50
        # category 0 saturates at probability 1 → contributes exactly 1 client
        assert expected_category_count(overall, 0, k) == pytest.approx(1.0)

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            expected_participants(simple_overall([0]), 5)
        with pytest.raises(ValueError):
            expected_category_count(simple_overall([0]), 0, 5)


class TestProbabilitiesForFederation:
    def test_per_client_probabilities(self):
        config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                             thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                             participants_per_round=4)
        codebook = RegistryCodebook(config)
        # 6 clients dominated by class 0, 2 balanced clients
        skewed = np.concatenate([[0.9], np.full(9, 0.1 / 9)])
        balanced = np.full(10, 0.1)
        dists = [skewed] * 6 + [balanced] * 2
        registrations = codebook.register_batch(np.stack(dists))
        overall = registrations.overall_registry()
        probs = participation_probabilities(codebook, registrations, overall, 4)
        support = 2
        np.testing.assert_allclose(probs[:6], 4 / (6 * support))
        np.testing.assert_allclose(probs[6:], 4 / (2 * support))


class TestVolunteerDraw:
    def test_zero_and_one_probabilities(self):
        rng = np.random.default_rng(0)
        out = VolunteerDraw(np.array([0.0, 1.0, 0.0, 1.0]))(rng)
        np.testing.assert_array_equal(out, [1, 3])

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            VolunteerDraw(np.array([1.5]))
        with pytest.raises(ValueError):
            VolunteerDraw(np.array([-0.1]))

    def test_nan_probability_rejected(self):
        # NaN compares False both ways: it used to volunteer nobody silently
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            VolunteerDraw(np.array([np.nan, 0.5, 1.0]))

    def test_expected_count_statistics(self):
        rng = np.random.default_rng(1)
        draw = VolunteerDraw(np.full(2000, 0.25))
        counts = [len(draw(rng)) for _ in range(30)]
        assert np.mean(counts) == pytest.approx(500, rel=0.1)


class TestMultiTimeSelection:
    def test_picks_the_least_biased_try(self):
        candidates = {0: [0], 1: [1], 2: [0, 1]}
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])

        result = multi_time_selection(
            draw=lambda h: candidates[h],
            populations_of=mean_rows(dists),
            uniform=np.array([0.5, 0.5]),
            tries=3,
        )
        assert result.best.candidate == (0, 1)
        assert result.best_score == pytest.approx(0.0)
        assert len(result.tries) == 3
        assert result.scores.shape == (3,)

    def test_mean_population(self):
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = multi_time_selection(
            draw=lambda h: [h % 2],
            populations_of=mean_rows(dists),
            uniform=np.array([0.5, 0.5]),
            tries=2,
        )
        np.testing.assert_allclose(result.mean_population, [0.5, 0.5])

    def test_empty_draws_are_penalised(self):
        dists = np.array([[0.6, 0.4]])
        result = multi_time_selection(
            draw=lambda h: [] if h == 0 else [0],
            populations_of=mean_rows(dists),
            uniform=np.array([0.5, 0.5]),
            tries=2,
        )
        assert result.best.candidate == (0,)

    def test_invalid_tries(self):
        with pytest.raises(ValueError):
            multi_time_selection(lambda h: [0], lambda cs: np.ones((len(cs), 1)),
                                 np.array([1.0]), 0)

    def test_batch_scoring_matches_per_candidate_path(self):
        rng = np.random.default_rng(2)
        dists = rng.dirichlet(np.ones(4), size=20)
        uniform = np.full(4, 0.25)
        candidates = {h: list(rng.choice(20, size=6, replace=False)) for h in range(5)}

        looped = multi_time_selection(
            lambda h: candidates[h], mean_rows(dists), uniform, tries=5
        )
        batched = multi_time_selection(
            lambda h: candidates[h],
            lambda cands: dists[np.asarray(cands)].mean(axis=1), uniform, tries=5,
        )
        assert batched.best.candidate == looped.best.candidate
        np.testing.assert_allclose(batched.scores, looped.scores, atol=1e-15)
        np.testing.assert_allclose(batched.best.population, looped.best.population,
                                   atol=1e-15)

    def test_ragged_draws_reach_the_scorer_in_one_call(self):
        dists = np.array([[1.0, 0.0], [0.0, 1.0]])
        calls = []

        def populations_of(cands):
            calls.append([c.tolist() for c in cands])
            return mean_rows(dists)(cands)

        result = multi_time_selection(
            lambda h: [0] if h == 0 else [0, 1],
            populations_of,
            np.array([0.5, 0.5]),
            tries=2,
        )
        assert calls == [[[0], [0, 1]]]  # one call, every try in order
        assert result.best.candidate == (0, 1)

    def test_more_tries_never_hurt_in_expectation(self):
        # statistical sanity: best-of-H score is non-increasing in H
        rng = np.random.default_rng(0)
        dists = rng.dirichlet(np.ones(5), size=50)
        uniform = np.full(5, 0.2)

        def run(tries, seed):
            local_rng = np.random.default_rng(seed)

            def draw(_h):
                return local_rng.choice(50, size=5, replace=False)

            return multi_time_selection(
                draw, mean_rows(dists), uniform, tries
            ).best_score

        small = np.mean([run(1, s) for s in range(40)])
        large = np.mean([run(10, s) for s in range(40)])
        assert large <= small + 1e-9


@settings(max_examples=scaled_max_examples(100), deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=30),
    k=st.integers(min_value=1, max_value=20),
)
def test_property_expected_participants_never_exceeds_and_hits_k(counts, k):
    """E|S| == K when no saturation, and never exceeds the total client count."""
    overall = np.asarray(counts, dtype=float)
    expected = expected_participants(overall, k)
    assert expected <= overall.sum() + 1e-9
    support = len(counts)
    if all(k <= c * support for c in counts):  # no probability saturates
        assert expected == pytest.approx(k)
