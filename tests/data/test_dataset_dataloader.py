"""Tests for ArrayDataset and DataLoader."""

import numpy as np
import pytest

from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 1, 4, 4)).astype(np.float32)
    y = np.repeat(np.arange(5), 20)
    return ArrayDataset(x, y)


class TestArrayDataset:
    def test_len(self, dataset):
        assert len(dataset) == 100

    def test_num_classes_inferred(self, dataset):
        assert dataset.num_classes == 5

    def test_class_distribution(self, dataset):
        np.testing.assert_allclose(dataset.class_distribution(), [0.2] * 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_2d_labels_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int))

    def test_labels_exceeding_num_classes_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=3)


class TestDataLoader:
    def test_number_of_batches(self, dataset):
        loader = DataLoader(dataset, batch_size=8, shuffle=False)
        batches = list(loader)
        assert len(batches) == 13
        assert batches[0][0].shape == (8, 1, 4, 4)
        assert batches[-1][0].shape[0] == 4

    def test_drop_last(self, dataset):
        loader = DataLoader(dataset, batch_size=8, drop_last=True, shuffle=False)
        batches = list(loader)
        assert len(batches) == 12
        assert all(xb.shape[0] == 8 for xb, _ in batches)

    def test_covers_all_samples(self, dataset):
        loader = DataLoader(dataset, batch_size=16, shuffle=True, seed=0)
        ys = np.concatenate([yb for _, yb in loader])
        np.testing.assert_array_equal(np.sort(ys), np.sort(dataset.y))

    def test_seeded_shuffle_reproducible(self, dataset):
        a = np.concatenate([yb for _, yb in DataLoader(dataset, 16, seed=3)])
        b = np.concatenate([yb for _, yb in DataLoader(dataset, 16, seed=3)])
        np.testing.assert_array_equal(a, b)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)
