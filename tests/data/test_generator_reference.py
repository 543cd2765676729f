"""The table-gather generator against the per-sample ``np.roll`` reference.

``SyntheticImageGenerator`` draws every sample's shift and noise in the same
RNG order as the loop in ``tests/reference/synthetic_generator.py`` and
gathers the shifted prototype from a precomputed table; its output must be the
reference's, array for array and dtype for dtype, and it must leave the RNG
where the reference leaves it, for any generator shape, jitter, noise scale,
class counts, shuffle flag, bit generator and start state — a PCG64 stream
holding a buffered 32-bit half, and one whose next shift is rejected and
redrawn, included.
"""

import numpy as np
from hypothesis import given, settings

from strategies import STANDARD, generator_cases, scaled_max_examples
from reference.synthetic_generator import reference_generate, reference_sample_class
from repro.data.synthetic import SyntheticImageGenerator, make_synthetic_mnist

#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def _assert_same_state(actual, expected):
    """Equal ``bit_generator.state`` dicts (MT19937 keeps its key as an array)."""
    actual, expected = actual.bit_generator.state, expected.bit_generator.state
    assert actual.keys() == expected.keys()
    for name, value in expected.items():
        if isinstance(value, dict):
            assert value.keys() == actual[name].keys()
            for key in value:
                assert np.array_equal(actual[name][key], value[key]), (name, key)
        else:
            assert actual[name] == value, name


def _twin_rngs(rng, gen, ref):
    if rng is None:
        return gen._rng, ref._rng
    name, seed = rng
    bit_generator = getattr(np.random, name)
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


@settings(STANDARD, max_examples=scaled_max_examples(40))
@given(generator_cases())
def test_generate_matches_reference(case):
    params, counts, label, n, shuffle, rng, warmup = case
    # twin generators: same prototypes and the same own-RNG state
    gen = SyntheticImageGenerator(**params)
    ref = SyntheticImageGenerator(**params)
    gen_rng, ref_rng = _twin_rngs(rng, gen, ref)
    gen_rng.integers(0, 10, size=warmup)
    ref_rng.integers(0, 10, size=warmup)

    # rng=None: both sides fall back to their own _rng
    own = rng is None
    actual = gen.generate(counts, rng=None if own else gen_rng, shuffle=shuffle)
    expected = reference_generate(ref, counts, rng=None if own else ref_rng,
                                  shuffle=shuffle)
    _assert_same_array(actual.x, expected.x)
    _assert_same_array(actual.y, expected.y)
    assert actual.num_classes == expected.num_classes
    _assert_same_state(gen_rng, ref_rng)

    # continuing on the same streams with a one-class draw pins the state
    # again, as the shuffle-free path leaves it
    one_class = np.zeros(params["num_classes"], dtype=int)
    one_class[label] = n
    _assert_same_array(gen.generate(one_class, rng=gen_rng, shuffle=False).x,
                       reference_sample_class(ref, label, n, rng=ref_rng))
    _assert_same_state(gen_rng, ref_rng)


def _pcg64_before(output_state, inc):
    """The PCG64 state one step before *output_state* (step: s·a + inc)."""
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    return (output_state - inc) * inverse % 2**128


def test_a_rejected_shift_is_redrawn_as_the_reference_does():
    # PCG64 steps, then outputs rotr64(hi ^ lo, hi >> 58) of the new state:
    # with hi's top six bits clear the word is hi ^ lo, so pick one whose low
    # half is zero — integers(-1, 2) rejects that half and draws another
    inc = (0x5851F42D4C957F2D << 1) | 1
    hi = 0x0123456789ABCDEF
    word = 0x9E3779B900000000
    start = _pcg64_before((hi << 64) | (hi ^ word), inc)

    def rng():
        bit_generator = np.random.PCG64()
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": start, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bit_generator)

    assert rng().bit_generator.random_raw() == word
    gen, ref = make_synthetic_mnist(seed=3), make_synthetic_mnist(seed=3)
    # the array decode declines the stream and leaves it where it found it
    declined = rng()
    assert gen._sample_pcg64(4, 1, declined) is None
    _assert_same_state(declined, rng())
    counts = [3, 0, 2, 0, 0, 1, 0, 0, 0, 2]
    for shuffle in (False, True):
        gen_rng, ref_rng = rng(), rng()
        actual = gen.generate(counts, rng=gen_rng, shuffle=shuffle)
        expected = reference_generate(ref, counts, rng=ref_rng, shuffle=shuffle)
        _assert_same_array(actual.x, expected.x)
        _assert_same_array(actual.y, expected.y)
        _assert_same_state(gen_rng, ref_rng)
