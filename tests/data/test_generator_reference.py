"""The table-gather generator against the per-sample ``np.roll`` reference.

``SyntheticImageGenerator`` draws every sample's shift and noise in the same
RNG order as the loop in ``tests/reference/synthetic_generator.py`` and
gathers the shifted prototype from a precomputed table; its output must be the
reference's, array for array and dtype for dtype, for any generator shape,
jitter, noise scale, class counts, shuffle flag and RNG.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _hypothesis_support import scaled_max_examples
from reference.synthetic_generator import reference_generate, reference_sample_class
from repro.data.synthetic import SyntheticImageGenerator


@st.composite
def generator_cases(draw):
    num_classes = draw(st.integers(2, 52))
    size = draw(st.integers(4, 12))
    params = dict(
        num_classes=num_classes,
        image_shape=(draw(st.sampled_from([1, 3])), size, size),
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        jitter=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    counts = draw(st.lists(st.integers(0, 6), min_size=num_classes,
                           max_size=num_classes))
    label = draw(st.integers(0, num_classes - 1))
    n = draw(st.integers(0, 6))
    shuffle = draw(st.booleans())
    # None: both sides draw from their generator's own _rng
    rng_seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return params, counts, label, n, shuffle, rng_seed


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@settings(max_examples=scaled_max_examples(40), deadline=None)
@given(generator_cases())
def test_generate_and_sample_class_match_reference(case):
    params, counts, label, n, shuffle, rng_seed = case
    # twin generators: same prototypes and the same own-RNG state
    gen = SyntheticImageGenerator(**params)
    ref = SyntheticImageGenerator(**params)
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    ref_rng = None if rng_seed is None else np.random.default_rng(rng_seed)

    actual = gen.generate(counts, rng=rng, shuffle=shuffle)
    expected = reference_generate(ref, counts, rng=ref_rng, shuffle=shuffle)
    _assert_same_array(actual.x, expected.x)
    _assert_same_array(actual.y, expected.y)
    assert actual.num_classes == expected.num_classes

    # continuing on the same streams also pins where generate left them
    _assert_same_array(gen.sample_class(label, n, rng=rng),
                       reference_sample_class(ref, label, n, rng=ref_rng))
