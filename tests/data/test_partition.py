"""Tests for client partitioners and the ClientPartition container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples

from repro.data.partition import ClientPartition, EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions


@pytest.fixture(scope="module")
def skewed_global():
    return half_normal_class_proportions(10, 10.0)


class TestClientPartition:
    def test_basic_accessors(self):
        counts = np.array([[5, 5], [10, 0]])
        part = ClientPartition(counts, 2)
        assert part.n_clients == 2
        np.testing.assert_array_equal(part.client_class_counts.sum(axis=1), [10, 10])
        np.testing.assert_allclose(part.client_distributions()[1], [1.0, 0.0])
        np.testing.assert_allclose(part.global_distribution(), [0.75, 0.25])

    def test_achieved_statistics(self):
        counts = np.array([[30, 10], [10, 30]])
        part = ClientPartition(counts, 2)
        assert part.achieved_rho() == pytest.approx(1.0)
        assert part.achieved_emd_avg() == pytest.approx(0.5)  # |0.75-0.5| + |0.25-0.5|

    def test_selection_population(self):
        counts = np.array([[10, 0], [0, 10], [10, 0]])
        part = ClientPartition(counts, 2)
        np.testing.assert_allclose(part.selection_population([0, 1]), [0.5, 0.5])
        np.testing.assert_allclose(part.selection_population([0, 2]), [1.0, 0.0])

    def test_zero_row_is_uniform(self):
        part = ClientPartition(np.array([[0, 0, 0, 0], [1, 3, 0, 0]]), 4)
        np.testing.assert_array_equal(part.client_distributions(),
                                      [[0.25] * 4, [0.25, 0.75, 0.0, 0.0]])

    @pytest.mark.parametrize("selected, bad", [([-1, 0], -1), ([0, -3], -3), ([0, 3], 3)])
    def test_selection_population_refuses_ids_outside_the_federation(self, selected, bad):
        # a negative id must not wrap around to a client counted from the end
        part = ClientPartition(np.array([[10, 0], [0, 10], [10, 0]]), 2)
        with pytest.raises(IndexError, match=rf"client id {bad} .*n_clients=3"):
            part.selection_population(selected)

    def test_selection_population_of_nobody_rejected(self):
        with pytest.raises(ValueError, match="empty selection"):
            ClientPartition(np.array([[1, 1]]), 2).selection_population([])

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ClientPartition(np.ones(3), 3)
        with pytest.raises(ValueError):
            ClientPartition(np.ones((2, 3)), 4)
        with pytest.raises(ValueError):
            ClientPartition(-np.ones((2, 3)), 3)


class TestEMDTargetPartitioner:
    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0, 1.5])
    def test_hits_emd_target(self, skewed_global, target):
        part = EMDTargetPartitioner(400, 128, target, seed=0).partition(skewed_global)
        achieved = part.achieved_emd_avg()
        # multinomial sampling noise adds a small positive bias at low targets
        assert achieved == pytest.approx(target, abs=0.25)

    def test_zero_target_clients_look_global(self, skewed_global):
        part = EMDTargetPartitioner(100, 256, 0.0, seed=1).partition(skewed_global)
        assert part.achieved_emd_avg() < 0.35

    def test_global_skew_preserved(self, skewed_global):
        part = EMDTargetPartitioner(500, 128, 1.0, seed=2).partition(skewed_global)
        # ρ measured over the union of clients should be in the same ballpark
        assert 4.0 < part.achieved_rho() < 30.0

    def test_every_client_has_exact_size(self, skewed_global):
        part = EMDTargetPartitioner(50, 64, 1.5, seed=3).partition(skewed_global)
        np.testing.assert_array_equal(part.client_class_counts.sum(axis=1), np.full(50, 64))

    def test_metadata_recorded(self, skewed_global):
        part = EMDTargetPartitioner(10, 32, 1.0, seed=4).partition(skewed_global)
        assert part.metadata["partitioner"] == "emd_target"
        assert 0 <= part.metadata["alpha"] <= 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EMDTargetPartitioner(0, 10, 1.0)
        with pytest.raises(ValueError):
            EMDTargetPartitioner(10, 0, 1.0)
        with pytest.raises(ValueError):
            EMDTargetPartitioner(10, 10, 3.0)
        with pytest.raises(ValueError):
            EMDTargetPartitioner(10, 10, 1.0, dominating_classes=())
        with pytest.raises(ValueError):
            EMDTargetPartitioner(10, 10, 1.0, dominating_classes=(0,))

    def test_reproducible_with_seed(self, skewed_global):
        a = EMDTargetPartitioner(20, 32, 1.0, seed=7).partition(skewed_global)
        b = EMDTargetPartitioner(20, 32, 1.0, seed=7).partition(skewed_global)
        np.testing.assert_array_equal(a.client_class_counts, b.client_class_counts)


@settings(STANDARD, max_examples=scaled_max_examples(20))
@given(target=st.floats(min_value=0.0, max_value=1.5),
       n_clients=st.integers(min_value=20, max_value=100))
def test_property_partition_sizes_and_validity(target, n_clients):
    """Every partition produced has exact client sizes and valid distributions."""
    global_dist = half_normal_class_proportions(10, 5.0)
    part = EMDTargetPartitioner(n_clients, 32, target, seed=0).partition(global_dist)
    assert part.n_clients == n_clients
    np.testing.assert_array_equal(part.client_class_counts.sum(axis=1),
                                  np.full(n_clients, 32))
    dists = part.client_distributions()
    np.testing.assert_allclose(dists.sum(axis=1), np.ones(n_clients))
