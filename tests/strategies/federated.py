"""Round records and partial cohorts for the federated property tests."""

import numpy as np
from hypothesis import strategies as st

from repro.federated.history import RoundRecord
from repro.scenarios import FAILURE_CAUSES

__all__ = ["client_ids", "cohort_and_survivors", "finite", "round_records"]

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
optional_finite = st.none() | finite
client_ids = st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=1, max_size=8, unique=True).map(tuple)


@st.composite
def round_records(draw):
    """A :class:`RoundRecord` with every optional field present or absent."""
    selected = draw(client_ids)
    distribution = draw(st.lists(finite, min_size=1, max_size=6))
    actual = draw(st.none() | st.sampled_from([selected, selected[:1], ()]))
    failed = [c for c in selected if actual is not None and c not in actual]
    failures = {c: draw(st.sampled_from(FAILURE_CAUSES)) for c in failed}
    bias_options = st.none() | finite
    if actual == ():  # a round that aggregated nobody records NaN
        bias_options = bias_options | st.just(float("nan"))
    actual_bias = draw(bias_options)
    return RoundRecord(
        round_index=draw(st.integers(min_value=0, max_value=100_000)),
        selected_clients=selected,
        population_distribution=np.asarray(distribution, dtype=float),
        population_bias=draw(finite),
        test_accuracy=draw(optional_finite),
        actual_clients=actual,
        failures=failures,
        fallback_reason=draw(st.none() | st.text(max_size=20)),
        aggregation_skipped=draw(st.booleans()),
        actual_population_bias=actual_bias,
        round_delay=draw(finite),
    )


@st.composite
def cohort_and_survivors(draw):
    """A planned cohort size plus a non-empty survivor subset."""
    size = draw(st.integers(min_value=1, max_value=32))
    survivors = draw(st.sets(st.integers(min_value=0, max_value=size - 1),
                             min_size=1, max_size=size))
    return size, sorted(survivors)
