"""Tests of the top-level public API (`import repro`)."""

import numpy as np
import pytest

import repro


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.crypto
        import repro.data
        import repro.federated
        import repro.nn

        for module in (repro.analysis, repro.core, repro.crypto, repro.data,
                       repro.federated, repro.nn):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_one_dubhe_selection_core(self):
        # the secure selector is the plaintext one over encrypted rounds, and
        # the Bernoulli step is public as VolunteerDraw, not as a helper
        import repro.core

        assert issubclass(repro.core.SecureDubheSelector, repro.core.DubheSelector)
        assert not hasattr(repro.core.SecureDubheSelector, "register")
        assert "VolunteerDraw" in repro.core.__all__
        assert not hasattr(repro.core, "bernoulli_participation")


class TestQuickFederation:
    def test_mnist_flavour(self):
        partition, generator = repro.quick_federation(n_clients=30, rho=5.0,
                                                      emd_avg=1.0, seed=0)
        assert partition.n_clients == 30
        assert generator.num_classes == 10
        assert generator.image_shape[0] == 1

    def test_cifar_flavour(self):
        _, generator = repro.quick_federation(n_clients=10, dataset="cifar", seed=0)
        assert generator.image_shape[0] == 3

    def test_invalid_dataset(self):
        with pytest.raises(ValueError):
            repro.quick_federation(n_clients=10, dataset="imagenet")

    def test_docstring_quickstart_flow(self):
        # the flow shown in the package docstring must actually work
        partition, _ = repro.quick_federation(n_clients=50, rho=10.0, emd_avg=1.5, seed=0)
        config = repro.DubheConfig(num_classes=10, participants_per_round=10,
                                   thresholds={1: 0.7, 2: 0.1, 10: 0.0})
        selector = repro.DubheSelector(partition.client_distributions(), config, seed=0)
        selected = selector.select(round_index=0)
        assert len(selected) == 10
        assert len(np.unique(selected)) == 10
