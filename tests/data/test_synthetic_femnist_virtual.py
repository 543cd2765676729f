"""Tests for synthetic datasets, the FEMNIST-like federation and virtual clients."""

import numpy as np
import pytest

from repro.data.femnist import (
    FEMNIST_NUM_CLASSES,
    FEMNIST_PAPER_EMD,
    FEMNIST_PAPER_RHO,
    make_femnist_federation,
)
from repro.data.partition import ClientPartition, EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions
from repro.data.synthetic import (
    SyntheticImageGenerator,
    make_synthetic_cifar,
    make_synthetic_mnist,
    make_uniform_test_set,
)
from repro.data.virtual_clients import make_virtual_clients


class TestSyntheticGenerator:
    def test_shapes(self):
        gen = make_synthetic_mnist(seed=0)
        ds = gen.generate([5] * 10)
        assert ds.x.shape == (50, 1, 8, 8)
        assert ds.num_classes == 10

    def test_cifar_like_has_three_channels(self):
        gen = make_synthetic_cifar(seed=0)
        assert gen.image_shape[0] == 3
        assert gen.flat_feature_dim() == 3 * 8 * 8

    def test_class_counts_respected(self):
        gen = make_synthetic_mnist(seed=1)
        ds = gen.generate([0, 3, 0, 7, 0, 0, 0, 0, 0, 2])
        np.testing.assert_array_equal(np.bincount(ds.y, minlength=10), [0, 3, 0, 7, 0, 0, 0, 0, 0, 2])

    def test_same_seed_same_prototypes(self):
        a = make_synthetic_mnist(seed=5)
        b = make_synthetic_mnist(seed=5)
        np.testing.assert_allclose(a.prototypes, b.prototypes)

    def test_different_seed_different_prototypes(self):
        a = make_synthetic_mnist(seed=5)
        b = make_synthetic_mnist(seed=6)
        assert not np.allclose(a.prototypes, b.prototypes)

    def test_classes_are_separable(self):
        # nearest-prototype classification should beat chance by a wide margin,
        # otherwise no model can learn the task
        gen = make_synthetic_mnist(seed=2)
        ds = gen.generate([30] * 10, rng=np.random.default_rng(0))
        flat_protos = gen.prototypes.reshape(10, -1)
        flat_x = ds.x.reshape(len(ds), -1)
        dists = ((flat_x[:, None, :] - flat_protos[None, :, :]) ** 2).sum(axis=2)
        pred = dists.argmin(axis=1)
        assert (pred == ds.y).mean() > 0.55

    def test_uniform_test_set(self):
        gen = make_synthetic_mnist(seed=3)
        test = make_uniform_test_set(gen, samples_per_class=7, seed=0)
        np.testing.assert_array_equal(np.bincount(test.y, minlength=10), [7] * 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticImageGenerator(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageGenerator(num_classes=3, image_shape=(1, 4, 6))
        with pytest.raises(ValueError):
            SyntheticImageGenerator(num_classes=3, class_overlap=2.0)
        with pytest.raises(ValueError):
            SyntheticImageGenerator(num_classes=3, noise_scale=-1)
        gen = make_synthetic_mnist(seed=0)
        with pytest.raises(ValueError):
            gen.generate([1, 2])
        with pytest.raises(ValueError):
            make_uniform_test_set(gen, samples_per_class=0)

    @pytest.mark.parametrize("jitter", [-1, 1.5])
    def test_jitter_must_be_a_non_negative_integer(self, jitter):
        with pytest.raises(ValueError, match="jitter"):
            SyntheticImageGenerator(num_classes=3, jitter=jitter)

    def test_fractional_class_counts_rejected(self):
        gen = make_synthetic_mnist(seed=0)
        with pytest.raises(ValueError, match="whole numbers"):
            gen.generate([2.7] * 10)

    def test_integral_float_class_counts_accepted(self):
        gen = make_synthetic_mnist(seed=0)
        as_float = gen.generate([2.0] * 10, rng=np.random.default_rng(0))
        as_int = gen.generate([2] * 10, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(as_float.x, as_int.x)
        np.testing.assert_array_equal(as_float.y, as_int.y)

    def test_two_dimensional_class_counts_rejected(self):
        gen = make_synthetic_mnist(seed=0)
        with pytest.raises(ValueError, match="1-D sequence"):
            gen.generate(np.ones((2, 5), dtype=int))

class TestFemnistFederation:
    def test_summary_matches_paper_statistics(self):
        # larger per-client sample counts keep the empirical-EMD sampling
        # noise below the Table 1 target; without writer-style concentration
        # both Table 1 statistics are reachable
        fed = make_femnist_federation(n_clients=400, samples_per_client=200,
                                      writer_concentration=0.0, seed=0)
        summary = fed.summary()
        assert summary["num_classes"] == FEMNIST_NUM_CLASSES
        assert summary["n_clients"] == 400
        # ρ and EMD_avg should land near the Table 1 values
        assert summary["rho"] == pytest.approx(FEMNIST_PAPER_RHO, rel=0.6)
        assert summary["emd_avg"] == pytest.approx(FEMNIST_PAPER_EMD, abs=0.3)

    def test_default_federation_has_writer_style_concentration(self):
        # the default federation gives every client genuinely dominating
        # letters, which is what Dubhe's registry needs to act on
        fed = make_femnist_federation(n_clients=200, samples_per_client=64, seed=0)
        dists = fed.partition.client_distributions()
        top_share = np.sort(dists, axis=1)[:, -3:].sum(axis=1)
        assert np.median(top_share) > 0.3

    def test_client_sizes_even(self):
        fed = make_femnist_federation(n_clients=50, samples_per_client=32, seed=1)
        np.testing.assert_array_equal(fed.partition.client_class_counts.sum(axis=1), np.full(50, 32))

    def test_generator_covers_52_classes(self):
        fed = make_femnist_federation(n_clients=10, seed=2)
        assert fed.generator.num_classes == 52

    def test_invalid_clients(self):
        with pytest.raises(ValueError):
            make_femnist_federation(n_clients=0)


class TestVirtualClients:
    def test_every_virtual_client_has_exact_size(self):
        global_dist = half_normal_class_proportions(10, 5.0)
        real = EMDTargetPartitioner(20, 300, 1.0, seed=0).partition(global_dist)
        mapping = make_virtual_clients(real, samples_per_client=128, seed=0)
        np.testing.assert_array_equal(
            mapping.partition.client_class_counts.sum(axis=1),
            np.full(mapping.n_virtual, 128),
        )

    def test_large_clients_are_split(self):
        counts = np.array([[400, 400], [10, 10]])
        real = ClientPartition(counts, 2)
        mapping = make_virtual_clients(real, samples_per_client=100, seed=0)
        assert len(mapping.virtual_of(0)) == 8
        assert len(mapping.virtual_of(1)) == 1

    def test_small_clients_duplicate(self):
        counts = np.array([[3, 2]])
        real = ClientPartition(counts, 2)
        mapping = make_virtual_clients(real, samples_per_client=64, seed=0)
        assert mapping.n_virtual == 1
        assert mapping.partition.client_class_counts.sum(axis=1)[0] == 64

    def test_class_proportions_preserved_in_expectation(self):
        counts = np.array([[900, 100]])
        real = ClientPartition(counts, 2)
        mapping = make_virtual_clients(real, samples_per_client=1000, seed=1)
        dist = mapping.partition.client_distribution(0)
        assert dist[0] == pytest.approx(0.9, abs=0.05)

    def test_empty_client_skipped(self):
        counts = np.array([[0, 0], [5, 5]])
        real = ClientPartition(counts, 2)
        mapping = make_virtual_clients(real, samples_per_client=10, seed=0)
        assert mapping.n_virtual == 1

    def test_invalid_parameters(self):
        real = ClientPartition(np.array([[1, 1]]), 2)
        with pytest.raises(ValueError):
            make_virtual_clients(real, samples_per_client=0)
        empty = ClientPartition(np.array([[0, 0]]), 2)
        with pytest.raises(ValueError):
            make_virtual_clients(empty, samples_per_client=4)
