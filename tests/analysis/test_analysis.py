"""Tests for the analysis utilities: bias statistics, sweeps, weight divergence."""

import numpy as np
import pytest

from repro.analysis.divergence import weight_divergence_experiment
from repro.analysis.emd import baseline_global_bias, measure_selection_bias
from repro.analysis.unbiasedness import bias_reduction, run_unbiasedness_sweep
from repro.core.config import DubheConfig
from repro.core.selectors import RandomSelector
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions
from repro.data.synthetic import make_synthetic_mnist
from repro.nn.models import MLP


@pytest.fixture(scope="module")
def federation():
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(120, 64, 1.5, seed=0).partition(global_dist)
    return partition.client_distributions()


class TestSelectionBiasStats:
    def test_measure_random_selector(self, federation):
        selector = RandomSelector(federation, 10, seed=0)
        stats = measure_selection_bias(selector, federation, repetitions=30)
        assert stats.selector_name == "random"
        assert stats.repetitions == 30
        assert 0 <= stats.mean_bias <= 2
        assert stats.std_bias >= 0
        assert len(stats.biases) == 30

    def test_invalid_repetitions(self, federation):
        with pytest.raises(ValueError):
            measure_selection_bias(RandomSelector(federation, 5, seed=0), federation, 0)

    def test_baseline_global_bias(self, federation):
        bias = baseline_global_bias(federation)
        assert 0 < bias < 2
        with pytest.raises(ValueError):
            baseline_global_bias(np.empty((0, 10)))

    def test_empty_selection_raises(self, federation):
        class BadSelector:
            def select(self, r):
                return []

        with pytest.raises(RuntimeError):
            measure_selection_bias(BadSelector(), federation, repetitions=2)


class TestUnbiasednessSweep:
    def test_sweep_shapes_and_ordering(self, federation):
        def config_factory(k):
            return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                               thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                               participants_per_round=k)

        sweep = run_unbiasedness_sweep(
            federation, participation_counts=(10, 40), config_factory=config_factory,
            repetitions=25, seed=0,
        )
        assert sweep.participation_counts == (10, 40)
        assert set(sweep.stats) == {"random", "greedy", "dubhe"}
        assert sweep.mean_series("dubhe").shape == (2,)
        # Dubhe should beat random at the low participation rate on skewed data
        assert sweep.mean_series("dubhe")[0] < sweep.mean_series("random")[0]
        assert bias_reduction(sweep) > 0

    def test_sweep_without_greedy(self, federation):
        def config_factory(k):
            return DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                               thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                               participants_per_round=k)

        sweep = run_unbiasedness_sweep(federation, (10,), config_factory,
                                       repetitions=5, seed=0, include_greedy=False)
        assert "greedy" not in sweep.stats

    def test_invalid_participation_counts(self, federation):
        def config_factory(k):
            return DubheConfig(num_classes=10, reference_set=(1, 10),
                               thresholds={1: 0.7, 10: 0.0}, participants_per_round=k)

        with pytest.raises(ValueError):
            run_unbiasedness_sweep(federation, (0,), config_factory, repetitions=2)
        with pytest.raises(ValueError):
            run_unbiasedness_sweep(federation, (10_000,), config_factory, repetitions=2)
        with pytest.raises(ValueError):
            run_unbiasedness_sweep(federation[0], (5,), config_factory, repetitions=2)


class TestWeightDivergence:
    def _client_datasets(self, emds, seed=0):
        gen = make_synthetic_mnist(seed=seed)
        datasets = []
        rng = np.random.default_rng(seed)
        for spec in emds:
            datasets.append(gen.generate(spec, rng=rng))
        return gen, datasets

    def test_report_fields(self):
        gen, datasets = self._client_datasets([[6] * 10, [6] * 10])
        report = weight_divergence_experiment(
            lambda: MLP(gen.flat_feature_dim(), 10, hidden=(16,), seed=0),
            datasets, num_classes=10, rounds=1, local_steps=3, seed=0,
        )
        assert report.weight_divergence >= 0
        assert report.emd_clients_to_population == pytest.approx(0.0, abs=1e-9)
        assert 0 <= report.emd_population_to_uniform <= 2
        assert report.rounds == 1

    def test_divergence_grows_with_client_discrepancy(self):
        gen = make_synthetic_mnist(seed=1)
        rng = np.random.default_rng(0)
        iid = [gen.generate([5] * 10, rng=rng) for _ in range(4)]
        non_iid_specs = [[20 if c < 3 else 0 for c in range(10)],
                         [20 if 3 <= c < 6 else 0 for c in range(10)],
                         [20 if 6 <= c < 8 else 0 for c in range(10)],
                         [20 if c >= 8 else 0 for c in range(10)]]
        non_iid = [gen.generate(spec, rng=rng) for spec in non_iid_specs]

        def factory():
            return MLP(gen.flat_feature_dim(), 10, hidden=(16,), seed=5)

        # full-batch local steps remove mini-batch-order noise so the client-
        # drift effect of eq. (2) dominates the measured divergence
        iid_report = weight_divergence_experiment(factory, iid, 10, rounds=2,
                                                  local_steps=10, lr=0.1,
                                                  batch_size=200, seed=0)
        non_iid_report = weight_divergence_experiment(factory, non_iid, 10, rounds=2,
                                                      local_steps=10, lr=0.1,
                                                      batch_size=200, seed=0)
        assert non_iid_report.emd_clients_to_population > iid_report.emd_clients_to_population
        assert non_iid_report.weight_divergence > iid_report.weight_divergence

    def test_invalid_arguments(self):
        gen, datasets = self._client_datasets([[2] * 10])
        factory = lambda: MLP(gen.flat_feature_dim(), 10, seed=0)
        with pytest.raises(ValueError):
            weight_divergence_experiment(factory, [], 10)
        with pytest.raises(ValueError):
            weight_divergence_experiment(factory, datasets, 10, rounds=0)

        calls = [0]

        def bad_factory():
            calls[0] += 1
            return MLP(gen.flat_feature_dim(), 10, seed=calls[0])

        with pytest.raises(ValueError):
            weight_divergence_experiment(bad_factory, datasets, 10)
