"""Tests for ArrayDataset."""

import numpy as np
import pytest

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
