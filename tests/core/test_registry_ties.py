"""Property tests: batch Algorithm 1 ≡ per-row Algorithm 1 on tie-heavy rows.

:meth:`RegistryCodebook.register_batch` never sorts a row: it reads each
row's top classes from first-occurrence ``argmax`` passes, so a tie must go
to the smaller class id, exactly as :meth:`RegistryCodebook.register` orders
classes with ``lexsort``.  These tests feed both paths rows built to break
a sloppy tie rule: exact ties at and across the threshold boundary, ``-0.0``
zeros, one-hot and uniform rows, and thresholds of 0 below ``C`` — and row
counts on either side of the row blocks ``register_batch`` walks.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples

from repro.core.config import DubheConfig
from repro.core.registry import _REGISTER_BLOCK, RegistryCodebook

#: (C, G) pairs: the paper's group 1, a wide and a narrow 10-class codebook,
#: every block of a 4-class one, FEMNIST's 52 classes, a 40-class codebook
#: whose C(40, 20) block is far too wide to materialise, and a 66-class one
#: whose length passes 2^62 (the exact-integer ranking fallback)
SHAPES = (
    (10, (1, 2, 10)),
    (10, (1, 2, 6, 10)),
    (10, (1, 10)),
    (4, (1, 2, 3, 4)),
    (52, (1, 52)),
    (40, (1, 20, 40)),
    (66, (1, 33, 66)),
)

#: thresholds that exact-tie quantised proportions can land on, 0 included
SIGMAS = (0.0, 0.0, 0.02, 0.05, 0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 0.7, 1.0)

GROUP1 = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                     thresholds={1: 0.7, 2: 0.1, 10: 0.0})
WIDE = DubheConfig(num_classes=40, reference_set=(1, 20, 40),
                   thresholds={1: 0.5, 20: 0.02, 40: 0.0})


def block_edges(num_classes):
    """Row counts around :meth:`RegistryCodebook.register_batch`'s row blocks."""
    rows = _REGISTER_BLOCK // num_classes
    return (rows - 1, rows, rows + 1, 2 * rows + 3)


@st.composite
def tie_configs(draw):
    num_classes, reference_set = draw(st.sampled_from(SHAPES))
    thresholds = {i: draw(st.sampled_from(SIGMAS))
                  for i in reference_set if i < num_classes}
    return DubheConfig(num_classes=num_classes, reference_set=reference_set,
                       thresholds=thresholds)


def tie_heavy_rows(num_classes, n, levels, seed):
    """Probability rows of five kinds, half of them with ``-0.0`` zeros."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        kind = rng.integers(5)
        if kind == 0:  # few integer weights: many exact ties
            weights = rng.integers(0, levels + 1, num_classes).astype(float)
        elif kind == 1:  # one-hot
            weights = np.zeros(num_classes)
            weights[rng.integers(num_classes)] = 1.0
        elif kind == 2:  # uniform: every class ties
            weights = np.ones(num_classes)
        elif kind == 3:  # a t-way tie on top of a lower tied tier
            weights = rng.integers(0, 2, num_classes).astype(float)
            weights[rng.choice(num_classes, rng.integers(1, num_classes + 1),
                               replace=False)] = 2.0
        else:  # no ties
            weights = rng.dirichlet(np.full(num_classes, 0.5))
        if weights.sum() == 0:
            weights[rng.integers(num_classes)] = 1.0
        row = weights / weights.sum()
        if rng.random() < 0.5:
            row[row == 0] = -0.0
        rows.append(row)
    return np.array(rows)


def per_row(codebook, row):
    """``(index, block)`` of :meth:`RegistryCodebook.register`'s walk.

    The same ``lexsort`` order and first-match walk, minus the one-hot
    vector that a ``C(40, 20)``-slot codebook cannot allocate.
    """
    order = np.lexsort((np.arange(row.size), -row))
    for i in codebook.reference_set:
        sigma = codebook.config.threshold_for(i)
        if i == codebook.num_classes or row[order[i - 1]] >= sigma:
            return codebook.index_of(order[:i]), i


class TestBatchEqualsPerRowOnTies:
    @settings(max_examples=scaled_max_examples(60), deadline=None)
    @given(config=tie_configs(), n=st.integers(min_value=1, max_value=40),
           levels=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    # one row short of, exactly, one past and two blocks and a bit past the
    # row block that register_batch walks
    @example(config=GROUP1, n=block_edges(10)[0], levels=2, seed=1)
    @example(config=GROUP1, n=block_edges(10)[1], levels=3, seed=2)
    @example(config=GROUP1, n=block_edges(10)[2], levels=1, seed=3)
    @example(config=GROUP1, n=block_edges(10)[3], levels=2, seed=4)
    @example(config=WIDE, n=block_edges(40)[0], levels=2, seed=5)
    @example(config=WIDE, n=block_edges(40)[3], levels=4, seed=6)
    def test_indices_and_blocks_match_register(self, config, n, levels, seed):
        codebook = RegistryCodebook(config)
        rows = tie_heavy_rows(config.num_classes, n, levels, seed)
        batch = codebook.register_batch(rows)
        dense = codebook.length <= 10**6
        for k, row in enumerate(rows):
            index, block = per_row(codebook, row)
            if dense:
                reference = codebook.register(row)
                assert (reference.index, reference.block) == (index, block)
            assert batch.indices[k] == index
            assert batch.blocks[k] == block

    @settings(max_examples=scaled_max_examples(30), deadline=None)
    @given(num_classes=st.sampled_from([4, 10, 40, 52]),
           levels=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_top_classes_follow_the_stable_sort_for_every_k(
            self, num_classes, levels, seed):
        # every k, narrow or wide, against the stable order of -p
        rows = tie_heavy_rows(num_classes, 24, levels, seed)
        order = np.argsort(-rows, axis=1, kind="stable")
        for k in range(1, num_classes):
            top = RegistryCodebook._top_classes(rows, k)
            assert np.array_equal(top, order[:, :k].T)

    def test_first_tied_class_wins_at_the_boundary(self):
        # classes 1, 3 and 4 tie for second: the lowest id joins class 0
        config = DubheConfig(num_classes=10, reference_set=(1, 2, 10),
                             thresholds={1: 0.7, 2: 0.1, 10: 0.0})
        codebook = RegistryCodebook(config)
        row = np.array([0.4, 0.2, -0.0, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
        batch = codebook.register_batch(row[None, :])
        assert codebook.category_of(int(batch.indices[0])).classes == (0, 1)
        assert batch.indices[0] == codebook.register(row).index


def test_codebook_beyond_int64_is_refused():
    # C(70, 35) ≈ 1.1·10^20 slots: the ranks are exact but cannot be stored
    config = DubheConfig(num_classes=70, reference_set=(1, 35, 70),
                         thresholds={1: 0.5, 35: 0.0, 70: 0.0})
    codebook = RegistryCodebook(config)
    assert codebook.length >= 2**63
    rows = tie_heavy_rows(70, 4, 2, seed=0)
    with pytest.raises(ValueError, match=r"int64.*2\^63"):
        codebook.register_batch(rows)
