"""The table-gather generator against the per-sample ``np.roll`` reference.

``SyntheticImageGenerator`` draws every sample's shift and noise in the same
RNG order as the loop in ``tests/reference/synthetic_generator.py`` and
gathers the shifted prototype from a precomputed table; its output must be the
reference's, array for array and dtype for dtype, for any generator shape,
jitter, noise scale, class counts, shuffle flag and RNG.
"""

import numpy as np
from hypothesis import given, settings

from strategies import STANDARD, generator_cases, scaled_max_examples
from reference.synthetic_generator import reference_generate, reference_sample_class
from repro.data.synthetic import SyntheticImageGenerator


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@settings(STANDARD, max_examples=scaled_max_examples(40))
@given(generator_cases())
def test_generate_matches_reference(case):
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

    # continuing on the same streams with a one-class draw also pins where
    # generate left them
    one_class = np.zeros(params["num_classes"], dtype=int)
    one_class[label] = n
    _assert_same_array(gen.generate(one_class, rng=rng, shuffle=False).x,
                       reference_sample_class(ref, label, n, rng=ref_rng))
