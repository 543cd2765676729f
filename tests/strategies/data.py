"""Generator and partition cases for the reference-equivalence properties."""

from hypothesis import strategies as st

__all__ = ["count_matrices", "generator_cases", "partition_cases"]


@st.composite
def generator_cases(draw):
    """``(generator params, class counts, label, n, shuffle, rng, warmup)``.

    *label* and *n* describe a one-class draw that continues on the same RNG
    stream after the full dataset.  *rng* is ``None`` (both sides draw from
    their generator's own ``_rng``) or ``(bit generator name, seed)``; either
    way both streams first make *warmup* bounded ``integers`` draws, so an
    odd count starts a PCG64 stream with a buffered 32-bit half.
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
    rng = draw(st.one_of(st.none(), st.tuples(st.sampled_from(["PCG64", "MT19937"]),
                                              st.integers(0, 2**32 - 1))))
    warmup = draw(st.integers(0, 3))
    return params, counts, label, n, shuffle, rng, warmup


@st.composite
def partition_cases(draw):
    """``(EMDTargetPartitioner params, global weights, selected ids)``.

    The global weights may hold zeros (classes no quota reaches); the
    dominating-class sets are the ones the paper and the FEMNIST builder
    use, with ``C`` itself as the IID-ish extreme.
    """
    num_classes = draw(st.integers(2, 52))
    n_clients = draw(st.integers(1, 300))
    params = dict(
        n_clients=n_clients,
        samples_per_client=draw(st.integers(1, 64)),
        emd_target=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        dominating_classes=draw(st.sampled_from([(1, 2), (2, 3), (1, 2, num_classes)])),
        min_alpha=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=num_classes,
                            max_size=num_classes).filter(lambda w: sum(w) > 0))
    selected = draw(st.lists(st.integers(0, n_clients - 1), min_size=1, max_size=20))
    return params, weights, selected


@st.composite
def count_matrices(draw):
    """``(client x class count matrix, selected ids)``; rows may be all zero."""
    num_classes = draw(st.integers(1, 12))
    n_clients = draw(st.integers(1, 30))
    counts = draw(st.lists(st.lists(st.integers(0, 50), min_size=num_classes,
                                    max_size=num_classes),
                           min_size=n_clients, max_size=n_clients))
    selected = draw(st.lists(st.integers(0, n_clients - 1), min_size=1, max_size=10))
    return counts, selected
