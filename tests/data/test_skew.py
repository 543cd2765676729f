"""Tests for half-normal global skew generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro.data.skew import half_normal_class_proportions


class TestHalfNormalProportions:
    @pytest.mark.parametrize("rho", [1.0, 2.0, 5.0, 10.0, 13.64])
    def test_ratio_is_exact(self, rho):
        p = half_normal_class_proportions(10, rho)
        assert p.max() / p.min() == pytest.approx(rho, rel=1e-9)

    def test_sums_to_one(self):
        p = half_normal_class_proportions(10, 5.0)
        assert p.sum() == pytest.approx(1.0)

    def test_rho_one_is_uniform(self):
        np.testing.assert_allclose(half_normal_class_proportions(4, 1.0), [0.25] * 4)

    def test_monotone_decreasing_without_shuffle(self):
        p = half_normal_class_proportions(10, 10.0)
        assert np.all(np.diff(p) <= 1e-12)

    def test_shuffle_permutes(self):
        rng = np.random.default_rng(0)
        p = half_normal_class_proportions(10, 10.0, rng=rng, shuffle=True)
        assert not np.all(np.diff(p) <= 0)
        assert p.sum() == pytest.approx(1.0)

    def test_single_class(self):
        np.testing.assert_allclose(half_normal_class_proportions(1, 5.0), [1.0])

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            half_normal_class_proportions(10, 0.5)

    def test_invalid_num_classes(self):
        with pytest.raises(ValueError):
            half_normal_class_proportions(0, 2.0)


@settings(STANDARD, max_examples=scaled_max_examples(50))
@given(
    num_classes=st.integers(min_value=2, max_value=60),
    rho=st.floats(min_value=1.0, max_value=100.0),
)
def test_property_half_normal_is_valid_distribution(num_classes, rho):
    p = half_normal_class_proportions(num_classes, rho)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p > 0)
    assert p.max() / p.min() == pytest.approx(rho, rel=1e-6)
