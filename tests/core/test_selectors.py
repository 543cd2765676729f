"""Tests for the three client-selection strategies."""

import numpy as np
import pytest

from repro.core.config import DubheConfig
from repro.core.probability import VolunteerDraw
from repro.core.selectors import DubheSelector, GreedySelector, RandomSelector
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions


@pytest.fixture(scope="module")
def skewed_federation():
    """A 200-client federation with heavy global skew and client discrepancy."""
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(200, 64, 1.5, seed=0).partition(global_dist)
    return partition.client_distributions()


def group1_config(k=20, h=1, seed=None):
    return DubheConfig(
        num_classes=10,
        reference_set=(1, 2, 10),
        thresholds={1: 0.7, 2: 0.1, 10: 0.0},
        participants_per_round=k,
        tentative_selections=h,
        seed=seed,
    )


class TestSelectorValidation:
    def test_base_validation(self, skewed_federation):
        with pytest.raises(ValueError):
            RandomSelector(skewed_federation[0], 5)  # 1-D
        with pytest.raises(ValueError):
            RandomSelector(skewed_federation, 0)
        with pytest.raises(ValueError):
            RandomSelector(skewed_federation, 10_000)

    def test_dubhe_requires_thresholds(self, skewed_federation):
        config = DubheConfig(num_classes=10, reference_set=(1, 2, 10), participants_per_round=20)
        with pytest.raises(ValueError):
            DubheSelector(skewed_federation, config)

    def test_dubhe_class_mismatch(self, skewed_federation):
        config = DubheConfig(num_classes=5, reference_set=(1, 5),
                             thresholds={1: 0.5, 5: 0.0}, participants_per_round=20)
        with pytest.raises(ValueError):
            DubheSelector(skewed_federation, config)


class TestRandomSelector:
    def test_selects_exactly_k_distinct(self, skewed_federation):
        selector = RandomSelector(skewed_federation, 20, seed=0)
        selected = selector.select(0)
        assert len(selected) == 20
        assert len(set(selected)) == 20

    def test_different_rounds_differ(self, skewed_federation):
        selector = RandomSelector(skewed_federation, 20, seed=0)
        assert selector.select(0) != selector.select(1)

    def test_bias_tracks_global_distribution(self, skewed_federation):
        # with skewed global data, random selection stays biased
        selector = RandomSelector(skewed_federation, 20, seed=1)
        biases = [selector.bias_of(selector.select(r)) for r in range(20)]
        assert np.mean(biases) > 0.3


class TestGreedySelector:
    def test_selects_exactly_k_distinct(self, skewed_federation):
        selector = GreedySelector(skewed_federation, 20, seed=0)
        selected = selector.select(0)
        assert len(selected) == 20
        assert len(set(selected)) == 20

    def test_greedy_beats_random(self, skewed_federation):
        greedy = GreedySelector(skewed_federation, 20, seed=0)
        random_sel = RandomSelector(skewed_federation, 20, seed=0)
        greedy_bias = np.mean([greedy.bias_of(greedy.select(r)) for r in range(10)])
        random_bias = np.mean([random_sel.bias_of(random_sel.select(r)) for r in range(10)])
        assert greedy_bias < random_bias

    def test_greedy_on_perfectly_balanced_pairs(self):
        # clients come in complementary pairs; greedy should recover ~uniform
        dists = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]])
        selector = GreedySelector(dists, 2, seed=0)
        assert selector.bias_of(selector.select(0)) < 0.25


def reference_greedy_select(selector, round_index):
    """The pre-optimisation greedy implementation (shrinking candidate set).

    Kept verbatim as the regression reference: the rewritten
    ``GreedySelector.select`` (running population sum + full-width masked
    argmin) must reproduce its picks exactly.
    """
    first = int(selector.rng.integers(selector.n_clients))
    selected = [first]
    aggregate = selector.client_distributions[first].copy()
    available = np.ones(selector.n_clients, dtype=bool)
    available[first] = False
    while len(selected) < selector.participants_per_round:
        candidate_idx = np.flatnonzero(available)
        candidate_pop = (aggregate[None, :] + selector.client_distributions[candidate_idx])
        candidate_pop = candidate_pop / candidate_pop.sum(axis=1, keepdims=True)
        safe = np.clip(candidate_pop, 1e-12, None)
        kl = np.sum(safe * (np.log(safe) - np.log(selector.uniform[None, :])), axis=1)
        best = candidate_idx[int(np.argmin(kl))]
        selected.append(int(best))
        aggregate += selector.client_distributions[best]
        available[best] = False
    return selected


class TestGreedyRegression:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_identical_picks_to_reference_implementation(self, skewed_federation, seed):
        new = GreedySelector(skewed_federation, 20, seed=seed)
        old = GreedySelector(skewed_federation, 20, seed=seed)
        for round_index in range(5):
            assert new.select(round_index) == reference_greedy_select(old, round_index)

    def test_identical_picks_when_selecting_every_client(self):
        dists = np.random.default_rng(3).dirichlet(np.ones(6), size=12)
        new = GreedySelector(dists, 12, seed=4)
        old = GreedySelector(dists, 12, seed=4)
        assert new.select(0) == reference_greedy_select(old, 0)


class TestPopulationsOf:
    def test_equal_sized_candidates_match_population_of(self, skewed_federation):
        selector = RandomSelector(skewed_federation, 20, seed=0)
        candidates = [selector.select(r) for r in range(5)]
        batch = selector.populations_of(candidates)
        assert batch.shape == (5, 10)
        for row, candidate in zip(batch, candidates):
            np.testing.assert_array_equal(row, selector.population_of(candidate))

    def test_empty_selection_is_an_error_not_nan(self, skewed_federation):
        # the encrypted scorer's error, not a "Mean of empty slice" NaN
        selector = RandomSelector(skewed_federation, 20, seed=0)
        with pytest.raises(ValueError, match="cannot score an empty selection"):
            selector.population_of([])
        with pytest.raises(ValueError, match="cannot score an empty selection"):
            selector.bias_of([])
        with pytest.raises(ValueError, match="cannot score an empty selection"):
            selector.populations_of([[], []])
        with pytest.raises(ValueError, match="cannot score an empty selection"):
            selector.populations_of([[0, 1], []])

    def test_ragged_candidates_fall_back(self, skewed_federation):
        selector = RandomSelector(skewed_federation, 20, seed=0)
        candidates = [[0, 1, 2], [3, 4], [5, 6, 7]]
        batch = selector.populations_of(candidates)
        for row, candidate in zip(batch, candidates):
            np.testing.assert_allclose(row, selector.population_of(candidate))


class TestDubheSelector:
    def test_selects_exactly_k_distinct(self, skewed_federation):
        selector = DubheSelector(skewed_federation, group1_config(k=20), seed=0)
        selected = selector.select(0)
        assert len(selected) == 20
        assert len(set(selected)) == 20

    def test_dubhe_beats_random_on_skewed_data(self, skewed_federation):
        dubhe = DubheSelector(skewed_federation, group1_config(k=20), seed=0)
        random_sel = RandomSelector(skewed_federation, 20, seed=0)
        dubhe_bias = np.mean([dubhe.bias_of(dubhe.select(r)) for r in range(20)])
        random_bias = np.mean([random_sel.bias_of(random_sel.select(r)) for r in range(20)])
        assert dubhe_bias < random_bias

    def test_registration_counts_match_client_count(self, skewed_federation):
        selector = DubheSelector(skewed_federation, group1_config(), seed=0)
        assert selector.overall_registry.sum() == len(skewed_federation)
        assert len(selector.registration_batch) == len(skewed_federation)

    def test_probabilities_lie_in_unit_interval(self, skewed_federation):
        selector = DubheSelector(skewed_federation, group1_config(), seed=0)
        assert np.all(selector.probabilities >= 0)
        assert np.all(selector.probabilities <= 1)

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_probabilities_out_of_unit_interval_rejected_on_next_draw(
            self, skewed_federation, bad):
        selector = DubheSelector(skewed_federation, group1_config(), seed=0)
        selector._tentative_draw(0)  # the draw buffers now exist
        probabilities = selector.probabilities.copy()
        probabilities[-1] = bad
        selector.probabilities = probabilities
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            selector._tentative_draw(1)

    def test_expected_pool_size_close_to_k(self, skewed_federation):
        # the volunteer pool before the draw tops it up or trims it to K
        selector = DubheSelector(skewed_federation, group1_config(k=20), seed=0)
        volunteer = VolunteerDraw(selector.probabilities)
        sizes = [len(volunteer(selector.rng)) for _ in range(100)]
        assert np.mean(sizes) == pytest.approx(20, rel=0.3)

    def test_multi_time_selection_improves_bias(self, skewed_federation):
        one_shot = DubheSelector(skewed_federation, group1_config(k=20, h=1), seed=0)
        multi = DubheSelector(skewed_federation, group1_config(k=20, h=10), seed=0)
        bias_one = np.mean([one_shot.bias_of(one_shot.select(r)) for r in range(15)])
        bias_multi = np.mean([multi.bias_of(multi.select(r)) for r in range(15)])
        assert bias_multi <= bias_one + 0.02

    def test_last_bias_property(self, skewed_federation):
        selector = DubheSelector(skewed_federation, group1_config(), seed=0)
        with pytest.raises(RuntimeError):
            _ = selector.last_bias
        selected = selector.select(0)
        assert selector.last_bias == pytest.approx(selector.bias_of(selected))

    def test_refresh_registrations(self, skewed_federation):
        selector = DubheSelector(skewed_federation, group1_config(), seed=0)
        before = selector.overall_registry.copy()
        # clients' data drifts to balanced → everyone lands in the C block
        balanced = np.tile(np.full(10, 0.1), (len(skewed_federation), 1))
        selector.refresh_registrations(balanced)
        after = selector.overall_registry
        assert not np.allclose(before, after)
        # identical (balanced) clients all land in the same category
        assert after.max() == len(skewed_federation)
        with pytest.raises(ValueError):
            selector.refresh_registrations(balanced[:5])

    def test_population_and_bias_helpers(self, skewed_federation):
        selector = DubheSelector(skewed_federation, group1_config(), seed=0)
        selected = selector.select(0)
        pop = selector.population_of(selected)
        assert pop.shape == (10,)
        assert pop.sum() == pytest.approx(1.0)
        assert 0 <= selector.bias_of(selected) <= 2
