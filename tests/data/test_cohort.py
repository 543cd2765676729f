"""Tests for the bounded LRU dataset cache."""

import threading

import numpy as np
import pytest

from repro.data.cohort import DatasetCache
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import make_synthetic_mnist
from repro.federated.client import FederatedClient


def dataset(n=6, seed=0, num_classes=4):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.standard_normal((n, 2, 3, 3)).astype(np.float32),
                        rng.integers(0, num_classes, size=n), num_classes=num_classes)


class TestDatasetCache:
    def test_hit_returns_same_object(self):
        cache = DatasetCache(4)
        calls = []

        def factory():
            calls.append(1)
            return dataset()

        a = cache.get(0, factory)
        b = cache.get(0, factory)
        assert a is b
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = DatasetCache(2)
        cache.get("a", dataset)
        cache.get("b", dataset)
        cache.get("a", dataset)  # refresh a: b is now least recently used
        cache.get("c", dataset)  # evicts b
        misses = cache.misses
        cache.get("a", dataset)
        cache.get("c", dataset)
        assert cache.misses == misses  # a and c stayed resident
        cache.get("b", dataset)
        assert cache.misses == misses + 1

    def test_evicted_entry_regenerates_identically(self):
        # deterministic factories make eviction safe: same bits on re-entry
        cache = DatasetCache(1)
        first = cache.get(0, lambda: dataset(seed=5))
        cache.get(1, lambda: dataset(seed=6))  # evicts client 0
        again = cache.get(0, lambda: dataset(seed=5))
        assert first is not again
        np.testing.assert_array_equal(first.x, again.x)
        np.testing.assert_array_equal(first.y, again.y)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DatasetCache(0)

    def test_residency_never_exceeds_capacity(self):
        cache = DatasetCache(3)
        for key in range(10):
            cache.get(key, dataset)
            assert len(cache._entries) == min(key + 1, 3)
        assert list(cache._entries) == [7, 8, 9]

    def test_concurrent_misses_on_distinct_keys_are_all_kept(self):
        cache = DatasetCache(8)
        barrier = threading.Barrier(4)

        def factory_for(key):
            def factory():
                barrier.wait(timeout=10)  # every miss overlaps the others
                return dataset(seed=key)
            return factory

        threads = [threading.Thread(target=cache.get, args=(key, factory_for(key)))
                   for key in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert cache.misses == 4
        assert sorted(cache._entries) == [0, 1, 2, 3]
        for key in range(4):
            np.testing.assert_array_equal(cache.get(key, dataset).x,
                                          dataset(seed=key).x)
        assert cache.hits == 4


class TestClientCacheIntegration:
    def test_cached_client_does_not_pin_dataset(self):
        gen = make_synthetic_mnist(seed=0)
        cache = DatasetCache(1)
        calls = []

        def factory_for(k):
            def factory():
                calls.append(k)
                return gen.generate([2] * 10, rng=np.random.default_rng(k))

            return factory

        a = FederatedClient(0, 10, dataset_factory=factory_for(0), cache=cache)
        b = FederatedClient(1, 10, dataset_factory=factory_for(1), cache=cache)
        _ = a.dataset
        _ = a.dataset  # cache hit, no regeneration
        assert calls == [0]
        _ = b.dataset  # evicts client 0 (capacity 1)
        first = a.dataset  # regenerated deterministically
        assert calls == [0, 1, 0]
        np.testing.assert_array_equal(
            first.x, gen.generate([2] * 10, rng=np.random.default_rng(0)).x
        )

    def test_eager_dataset_ignores_cache(self):
        cache = DatasetCache(1)
        ds = dataset(num_classes=10)
        client = FederatedClient(0, 10, dataset=ds, cache=cache)
        assert client.dataset is ds
        assert cache.hits + cache.misses == 0
