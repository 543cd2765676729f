"""Codebook configurations for the Algorithm 1 property tests."""

from hypothesis import strategies as st

from repro.core.config import DubheConfig

__all__ = ["SHAPES", "SIGMAS", "codebook_configs", "tie_configs"]

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


@st.composite
def tie_configs(draw):
    """One of :data:`SHAPES` with thresholds drawn from :data:`SIGMAS`."""
    num_classes, reference_set = draw(st.sampled_from(SHAPES))
    thresholds = {i: draw(st.sampled_from(SIGMAS))
                  for i in reference_set if i < num_classes}
    return DubheConfig(num_classes=num_classes, reference_set=reference_set,
                       thresholds=thresholds)
