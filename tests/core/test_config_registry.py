"""Tests for DubheConfig and the registry codebook / Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, scaled_max_examples
from hypothesis.extra import numpy as hnp

from repro.core.config import GROUP1_REFERENCE_SET, GROUP2_REFERENCE_SET, DubheConfig
from repro.core.registry import _REGISTER_BLOCK, ClientCategory, RegistryCodebook
from repro.data.distributions import normalize_counts


def group1_config(**overrides):
    defaults = dict(
        num_classes=10,
        reference_set=GROUP1_REFERENCE_SET,
        thresholds={1: 0.7, 2: 0.1, 10: 0.0},
        participants_per_round=20,
    )
    defaults.update(overrides)
    return DubheConfig(**defaults)


class TestDubheConfig:
    def test_paper_group1_registry_length_is_56(self):
        codebook = RegistryCodebook(group1_config())
        assert codebook.length == 10 + 45 + 1 == 56

    def test_paper_group2_registry_length_is_53(self):
        config = DubheConfig(
            num_classes=52,
            reference_set=GROUP2_REFERENCE_SET,
            thresholds={1: 0.5, 52: 0.0},
            participants_per_round=20,
        )
        codebook = RegistryCodebook(config)
        assert codebook.length == 52 + 1 == 53

    def test_sigma_c_is_implied(self):
        config = DubheConfig(num_classes=10, reference_set=(1, 10), thresholds={1: 0.5})
        assert config.thresholds[10] == 0.0
        assert config.has_all_thresholds()

    def test_reference_set_must_contain_c(self):
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=(1, 2))

    def test_invalid_reference_entries(self):
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=(0, 10))
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=(11, 10))
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=())

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=(1, 10), thresholds={3: 0.5})
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=(1, 10), thresholds={1: 1.5})
        with pytest.raises(ValueError):
            DubheConfig(num_classes=10, reference_set=(1, 10), thresholds={10: 0.3})

    def test_invalid_scalars(self):
        with pytest.raises(ValueError):
            DubheConfig(num_classes=1)
        with pytest.raises(ValueError):
            group1_config(participants_per_round=0)
        with pytest.raises(ValueError):
            group1_config(tentative_selections=0)
        with pytest.raises(ValueError):
            group1_config(key_size=8)

    def test_threshold_for(self):
        config = group1_config()
        assert config.threshold_for(1) == pytest.approx(0.7)
        with pytest.raises(KeyError):
            config.threshold_for(5)
        incomplete = DubheConfig(num_classes=10, reference_set=(1, 10))
        with pytest.raises(KeyError):
            incomplete.threshold_for(1)

    def test_with_thresholds_copy(self):
        config = DubheConfig(num_classes=10, reference_set=(1, 10))
        assert not config.has_all_thresholds()
        settled = config.with_thresholds({1: 0.6, 10: 0.0})
        assert settled.has_all_thresholds()
        assert settled.participants_per_round == config.participants_per_round


class TestCodebookGeometry:
    def test_block_lengths(self):
        codebook = RegistryCodebook(group1_config())
        assert codebook.block_length(1) == 10
        assert codebook.block_length(2) == 45
        assert codebook.block_length(10) == 1

    def test_block_slices_are_contiguous(self):
        codebook = RegistryCodebook(group1_config())
        assert codebook.block_slice(1) == slice(0, 10)
        assert codebook.block_slice(2) == slice(10, 55)
        assert codebook.block_slice(10) == slice(55, 56)

    def test_index_category_roundtrip(self):
        codebook = RegistryCodebook(group1_config())
        for index in range(codebook.length):
            category = codebook.category_of(index)
            assert codebook.index_of(category) == index

    def test_index_of_sorts_input(self):
        codebook = RegistryCodebook(group1_config())
        assert codebook.index_of([3, 0]) == codebook.index_of(ClientCategory((0, 3)))

    def test_unknown_category_rejected(self):
        codebook = RegistryCodebook(group1_config())
        with pytest.raises(KeyError):
            codebook.index_of([0, 1, 2])  # 3 dominating classes not in G
        with pytest.raises(IndexError):
            codebook.category_of(56)
        with pytest.raises(KeyError):
            codebook.block_length(7)
        with pytest.raises(KeyError):
            codebook.block_slice(7)

    def test_requires_settled_thresholds(self):
        with pytest.raises(ValueError):
            RegistryCodebook(DubheConfig(num_classes=10, reference_set=(1, 10)))

    def test_client_category_validation(self):
        with pytest.raises(ValueError):
            ClientCategory(())
        with pytest.raises(ValueError):
            ClientCategory((2, 1))
        with pytest.raises(ValueError):
            ClientCategory((1, 1))


class TestAlgorithm1:
    def test_single_dominating_class(self):
        codebook = RegistryCodebook(group1_config())
        p = np.array([0.85, 0.05, 0.02, 0.02, 0.02, 0.01, 0.01, 0.01, 0.005, 0.005])
        result = codebook.register(p)
        assert result.block == 1
        assert result.category.classes == (0,)
        assert result.registry.sum() == 1
        assert result.registry[result.index] == 1

    def test_two_dominating_classes_example_from_paper(self):
        # paper example: classes '0' and '1' both exceed σ₂ → slot of (0, 1)
        codebook = RegistryCodebook(group1_config())
        p = np.array([0.45, 0.45, 0.02, 0.02, 0.02, 0.01, 0.01, 0.01, 0.005, 0.005])
        result = codebook.register(p)
        assert result.block == 2
        assert result.category.classes == (0, 1)

    def test_balanced_client_falls_through_to_c_block(self):
        # thresholds strictly above 1/C so a perfectly balanced client matches
        # neither the 1- nor the 2-dominating-class block
        config = group1_config(thresholds={1: 0.7, 2: 0.15, 10: 0.0})
        codebook = RegistryCodebook(config)
        p = np.full(10, 0.1)
        result = codebook.register(p)
        assert result.block == 10
        assert result.index == codebook.block_slice(10).start

    def test_threshold_boundary_inclusive(self):
        config = group1_config(thresholds={1: 0.5, 2: 0.1, 10: 0.0})
        codebook = RegistryCodebook(config)
        p = np.array([0.5, 0.5 / 9 * np.ones(9)]).ravel() if False else None
        p = np.concatenate([[0.5], np.full(9, 0.5 / 9)])
        result = codebook.register(p)
        assert result.block == 1  # exactly σ₁ counts as dominating

    def test_invalid_distribution_rejected(self):
        codebook = RegistryCodebook(group1_config())
        with pytest.raises(ValueError):
            codebook.register(np.full(9, 1 / 9))
        with pytest.raises(ValueError):
            codebook.register(np.full(10, 0.2))
        with pytest.raises(ValueError):
            codebook.register(np.array([1.5, -0.5] + [0.0] * 8))

    def test_register_batch_overall_registry(self):
        codebook = RegistryCodebook(group1_config())
        p1 = np.concatenate([[0.9], np.full(9, 0.1 / 9)])
        p2 = np.concatenate([[0.9], np.full(9, 0.1 / 9)])
        p3 = np.full(10, 0.1)
        overall = codebook.register_batch(np.stack([p1, p2, p3])).overall_registry()
        assert overall.sum() == 3
        assert overall[codebook.register(p1).index] == 2
        assert overall[codebook.register(p3).index] == 1

    def test_register_batch_empty_rejected(self):
        codebook = RegistryCodebook(group1_config())
        with pytest.raises(ValueError):
            codebook.register_batch(np.empty((0, 10)))

    @pytest.mark.parametrize("bad", [
        np.concatenate([[np.nan], np.full(9, 1 / 9)]),
        np.concatenate([[1.5, -0.5], np.zeros(8)]),
        np.full(10, 0.2),
    ], ids=["nan", "negative", "sum-not-1"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_register_batch_bad_row_rejected_in_any_block(self, bad, where):
        # the last row sits alone in the third block register_batch walks
        codebook = RegistryCodebook(group1_config())
        distributions = np.full((2 * (_REGISTER_BLOCK // 10) + 1, 10), 0.1)
        distributions[0 if where == "first" else -1] = bad
        with pytest.raises(ValueError, match="every row must be a probability vector"):
            codebook.register_batch(distributions)

    def test_describe_overall_registry(self):
        codebook = RegistryCodebook(group1_config())
        p1 = np.concatenate([[0.9], np.full(9, 0.1 / 9)])
        overall = codebook.register_batch(
            np.stack([p1, p1, np.full(10, 0.1)])).overall_registry()
        entries = codebook.describe(overall)
        assert entries[0]["count"] == 2
        assert entries[0]["category"] == (0,)
        assert len(codebook.describe(overall, max_entries=1)) == 1
        with pytest.raises(ValueError):
            codebook.describe(np.zeros(3))


@settings(STANDARD, max_examples=scaled_max_examples(150))
@given(
    counts=hnp.arrays(dtype=np.int64, shape=10,
                      elements=st.integers(min_value=0, max_value=500)),
)
def test_property_every_distribution_registers_exactly_once(counts):
    """Algorithm 1 always produces a one-hot registry for any distribution."""
    codebook = RegistryCodebook(group1_config())
    p = normalize_counts(counts.astype(float))
    result = codebook.register(p)
    assert result.registry.shape == (56,)
    assert result.registry.sum() == 1
    assert result.registry[result.index] == 1
    assert result.block in (1, 2, 10)
    assert len(result.category.classes) == result.block
