"""Tests for label-distribution utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples
from hypothesis.extra import numpy as hnp

from repro.data.distributions import (
    average_emd,
    emd,
    imbalance_ratio,
    label_counts,
    label_distribution,
    normalize_counts,
    population_distribution,
    uniform_distribution,
)


class TestUniformAndNormalize:
    def test_uniform(self):
        np.testing.assert_allclose(uniform_distribution(4), [0.25] * 4)

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            uniform_distribution(0)

    def test_normalize(self):
        np.testing.assert_allclose(normalize_counts([2, 2, 4]), [0.25, 0.25, 0.5])

    def test_normalize_zero_counts_gives_uniform(self):
        np.testing.assert_allclose(normalize_counts([0, 0]), [0.5, 0.5])

    def test_normalize_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_counts([1, -1])


class TestEMD:
    def test_identical_is_zero(self):
        assert emd([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_is_two(self):
        assert emd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert emd([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.4)

    def test_symmetric(self):
        p, q = np.array([0.7, 0.2, 0.1]), np.array([0.2, 0.5, 0.3])
        assert emd(p, q) == pytest.approx(emd(q, p))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            emd([0.5, 0.5], [1.0])


class TestImbalanceRatio:
    def test_balanced(self):
        assert imbalance_ratio([10, 10, 10]) == 1.0

    def test_known(self):
        assert imbalance_ratio([100, 50, 10]) == pytest.approx(10.0)

    def test_zero_class_gives_inf(self):
        assert imbalance_ratio([5, 0]) == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            imbalance_ratio([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            imbalance_ratio([1, -1])


class TestLabelHelpers:
    def test_label_counts(self):
        np.testing.assert_array_equal(label_counts([0, 1, 1, 3], 4), [1, 2, 0, 1])

    def test_label_distribution(self):
        np.testing.assert_allclose(label_distribution([0, 0, 1, 1], 2), [0.5, 0.5])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            label_counts([0, 5], 3)


class TestPopulationAndAverageEMD:
    def test_population_is_mean(self):
        dists = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        np.testing.assert_allclose(population_distribution(dists), [0.5, 0.5])

    def test_population_empty_rejected(self):
        with pytest.raises(ValueError):
            population_distribution([])

    def test_average_emd_identical_clients_is_zero(self):
        dists = [np.array([0.3, 0.7])] * 5
        assert average_emd(dists) == pytest.approx(0.0)

    def test_average_emd_one_class_clients(self):
        # each client holds a single class, uniform global: EMD_k = 2*(1-1/C)
        dists = [np.eye(4)[i] for i in range(4)]
        assert average_emd(dists) == pytest.approx(2 * (1 - 0.25))

    def test_average_emd_explicit_reference(self):
        dists = [np.array([1.0, 0.0])]
        assert average_emd(dists, reference=np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_average_emd_empty_rejected(self):
        with pytest.raises(ValueError):
            average_emd([])


@settings(STANDARD, max_examples=scaled_max_examples(100))
@given(
    counts=hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=2, max_value=12),
        elements=st.integers(min_value=0, max_value=1000),
    )
)
def test_property_emd_bounds(counts):
    """0 <= EMD(p, u) <= 2 for any label distribution p."""
    p = normalize_counts(counts.astype(float))
    u = uniform_distribution(p.size)
    value = emd(p, u)
    assert 0.0 <= value <= 2.0 + 1e-9


@settings(STANDARD, max_examples=scaled_max_examples(100))
@given(
    counts=hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=2, max_value=12),
        elements=st.integers(min_value=0, max_value=1000),
    )
)
def test_property_normalize_counts_sums_to_one(counts):
    p = normalize_counts(counts.astype(float))
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p >= 0)


@settings(STANDARD, max_examples=scaled_max_examples(50))
@given(
    a=hnp.arrays(dtype=np.float64, shape=6,
                 elements=st.floats(min_value=0.01, max_value=1.0)),
    b=hnp.arrays(dtype=np.float64, shape=6,
                 elements=st.floats(min_value=0.01, max_value=1.0)),
    c=hnp.arrays(dtype=np.float64, shape=6,
                 elements=st.floats(min_value=0.01, max_value=1.0)),
)
def test_property_emd_triangle_inequality(a, b, c):
    p, q, r = normalize_counts(a), normalize_counts(b), normalize_counts(c)
    assert emd(p, r) <= emd(p, q) + emd(q, r) + 1e-9
