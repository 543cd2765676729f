"""Synthetic-generator cases for the reference-equivalence property."""

from hypothesis import strategies as st

__all__ = ["generator_cases"]


@st.composite
def generator_cases(draw):
    """``(generator params, class counts, label, n, shuffle, rng seed)``.

    *label* and *n* describe a one-class draw that continues on the same RNG
    stream after the full dataset; a ``None`` rng seed makes both sides draw
    from their generator's own ``_rng``.
    """
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
    rng_seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return params, counts, label, n, shuffle, rng_seed
