"""Property tests: the lazy combinatorial-ranked codebook ≡ the eager table.

The lazy :class:`RegistryCodebook` addresses slots arithmetically
(:func:`combination_rank` / :func:`combination_from_rank`); the reference in
``tests/reference/combination_table.py`` enumerates every block with
``itertools.combinations``.  These tests hold the two index-identical over
random (C, G, σ) configurations, check the rank/unrank bijection on blocks far
too wide to materialise, and pin down the Algorithm 1 invariances: the block
choice is invariant to any permutation of the class labels (including ones
that permute tied proportions), and the chosen *category* is equivariant for
tie-free distributions.
"""

from itertools import combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples
from reference.combination_table import slot_table

from repro.core.config import DubheConfig
from repro.core.registry import (
    ClientCategory,
    RegistryCodebook,
    combination_from_rank,
    combination_rank,
)


@st.composite
def codebook_configs(draw):
    """Random (C, G, σ) with C ∈ G and descending-ish thresholds."""
    num_classes = draw(st.integers(min_value=2, max_value=12))
    extra = draw(st.lists(st.integers(min_value=1, max_value=num_classes - 1),
                          min_size=0, max_size=3, unique=True))
    reference_set = tuple(sorted(set(extra) | {num_classes}))
    thresholds = {}
    for i in reference_set:
        if i == num_classes:
            thresholds[i] = 0.0
        else:
            thresholds[i] = draw(st.floats(min_value=0.0, max_value=1.0,
                                           allow_nan=False))
    return DubheConfig(num_classes=num_classes, reference_set=reference_set,
                       thresholds=thresholds)


def distributions_for(config, n, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(config.num_classes, 0.5), size=n)


class TestLazyEqualsEagerTable:
    @settings(max_examples=scaled_max_examples(30), deadline=None)
    @given(config=codebook_configs())
    def test_every_slot_roundtrips_identically(self, config):
        codebook = RegistryCodebook(config)
        table = slot_table(config)
        assert codebook.length == len(table)
        for combo, index in table.items():
            assert codebook.index_of(combo) == index
            assert codebook.category_of(index).classes == combo

    @settings(max_examples=scaled_max_examples(25), deadline=None)
    @given(config=codebook_configs(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_register_flips_the_eager_tables_slot(self, config, seed):
        codebook = RegistryCodebook(config)
        table = slot_table(config)
        for p in distributions_for(config, 8, seed):
            result = codebook.register(p)
            assert result.index == table[result.category.classes]
            assert result.block == result.category.size
            assert np.flatnonzero(result.registry).tolist() == [result.index]

    @settings(max_examples=scaled_max_examples(25), deadline=None)
    @given(config=codebook_configs(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_register_batch_equals_register_loop(self, config, seed):
        codebook = RegistryCodebook(config)
        distributions = distributions_for(config, 16, seed)
        batch = codebook.register_batch(distributions)
        for k, p in enumerate(distributions):
            reference = codebook.register(p)
            assert batch.indices[k] == reference.index
            assert batch.blocks[k] == reference.block
        registries = [codebook.register(p).registry for p in distributions]
        np.testing.assert_array_equal(batch.overall_registry(),
                                      np.sum(registries, axis=0))

    def test_block_categories_matches_slot_order(self):
        config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                             thresholds={1: 0.7, 2: 0.1, 10: 0.0})
        codebook = RegistryCodebook(config)
        for i in (1, 2, 10):
            start = codebook.block_slice(i).start
            for j, combo in enumerate(codebook.block_categories(i)):
                assert codebook.index_of(combo) == start + j
        with pytest.raises(KeyError):
            codebook.block_categories(3)


class TestCombinatorialRanking:
    @settings(max_examples=scaled_max_examples(50), deadline=None)
    @given(data=st.data(),
           n=st.integers(min_value=1, max_value=30),
           )
    def test_rank_unrank_roundtrip(self, data, n):
        k = data.draw(st.integers(min_value=1, max_value=n))
        classes = tuple(sorted(data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1),
                     min_size=k, max_size=k, unique=True))))
        rank = combination_rank(classes, n)
        assert 0 <= rank < comb(n, k)
        assert combination_from_rank(rank, n, k) == classes

    def test_rank_is_lexicographic(self):
        for n, k in [(5, 2), (6, 3), (7, 1)]:
            combos = list(combinations(range(n), k))
            assert [combination_rank(c, n) for c in combos] == \
                list(range(len(combos)))

    def test_huge_block_addressable_without_materialising(self):
        # C(40, 20) ≈ 1.4 · 10^11 slots: addressing must stay O(k)
        config = DubheConfig(num_classes=40, reference_set=(1, 20, 40),
                             thresholds={1: 0.5, 20: 0.01, 40: 0.0})
        codebook = RegistryCodebook(config)
        assert codebook.length == 40 + comb(40, 20) + 1
        first = tuple(range(20))
        last = tuple(range(20, 40))
        start = codebook.block_slice(20).start
        assert codebook.index_of(first) == start
        assert codebook.index_of(last) == start + comb(40, 20) - 1
        assert codebook.category_of(start + 12345).classes == \
            combination_from_rank(12345, 40, 20)
        # iteration is lazy: taking a prefix must not build the block
        prefix = list(islice(codebook.block_categories(20), 3))
        assert prefix == [combination_from_rank(r, 40, 20) for r in range(3)]

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(IndexError):
            combination_from_rank(comb(6, 2), 6, 2)
        with pytest.raises(IndexError):
            combination_from_rank(-1, 6, 2)

    def test_unrepresentable_categories_rejected(self):
        config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                             thresholds={1: 0.7, 2: 0.1, 10: 0.0})
        codebook = RegistryCodebook(config)
        for combo in ((0, 1, 2), (0, 10)):  # size 3 not in G, class out of range
            assert combo not in slot_table(config)
            with pytest.raises(KeyError):
                codebook.index_of(combo)
        with pytest.raises(KeyError):
            codebook.index_of(ClientCategory((0, 10)))
        with pytest.raises(IndexError):
            codebook.category_of(codebook.length)


class TestPermutationInvariance:
    @settings(max_examples=scaled_max_examples(30), deadline=None)
    @given(config=codebook_configs(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           perm_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_block_choice_invariant_to_any_permutation(self, config, seed,
                                                       perm_seed):
        """Permuting class labels (ties included) never changes the block."""
        codebook = RegistryCodebook(config)
        rng = np.random.default_rng(perm_seed)
        perm = rng.permutation(config.num_classes)
        for p in distributions_for(config, 6, seed):
            original = codebook.register(p)
            permuted = codebook.register(p[perm])
            assert permuted.block == original.block

    @settings(max_examples=scaled_max_examples(30), deadline=None)
    @given(config=codebook_configs(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           perm_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_category_equivariant_for_tie_free_distributions(self, config,
                                                             seed, perm_seed):
        """For tie-free p, the permuted category is the permuted image."""
        codebook = RegistryCodebook(config)
        rng = np.random.default_rng(perm_seed)
        perm = rng.permutation(config.num_classes)
        # inverse[c] = where class c of the original lands under perm:
        # (p[perm])[inverse[c]] == p[c]
        inverse = np.argsort(perm)
        for p in distributions_for(config, 6, seed):
            if len(np.unique(p)) != len(p):
                continue  # ties: category may legitimately differ
            original = codebook.register(p)
            permuted = codebook.register(p[perm])
            expected = tuple(sorted(int(inverse[c])
                                    for c in original.category.classes))
            assert permuted.category.classes == expected

    def test_tie_break_prefers_lower_class_id(self):
        config = DubheConfig(num_classes=4, reference_set=(1, 4),
                             thresholds={1: 0.4, 4: 0.0})
        codebook = RegistryCodebook(config)
        p = np.array([0.25, 0.45, 0.05, 0.25])
        result = codebook.register(p)
        assert result.category.classes == (1,)
        tied = np.array([0.45, 0.45, 0.05, 0.05])
        assert codebook.register(tied).category.classes == (0,)
        batch = codebook.register_batch(np.stack([p, tied]))
        assert batch.indices.tolist() == [result.index,
                                          codebook.register(tied).index]
