"""Model states and training recipes for the wire-codec property tests,
and the field-by-field comparison their round trips assert."""

import dataclasses

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.federated.client import LocalTrainingConfig

__all__ = ["model_states", "recipes", "same_message"]

#: every dtype the state codec carries
STATE_DTYPES = ("float64", "float32", "int64", "int32")


@st.composite
def model_states(draw):
    """Model states of every wire dtype, including empty names and 0-d arrays."""
    names = draw(st.lists(st.text(max_size=16), max_size=4, unique=True))
    state = {}
    for name in names:
        dtype = np.dtype(draw(st.sampled_from(STATE_DTYPES)))
        elements = (st.floats(width=8 * dtype.itemsize, allow_nan=False)
                    if dtype.kind == "f" else
                    st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max))
        shape = npst.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=4)
        state[name] = draw(npst.arrays(dtype, shape, elements=elements))
    return state


recipes = st.builds(
    LocalTrainingConfig,
    batch_size=st.integers(1, (1 << 32) - 1),
    local_epochs=st.integers(1, (1 << 32) - 1),
    learning_rate=st.floats(min_value=1e-12, max_value=1e3),
    optimizer=st.sampled_from(["adam", "sgd"]),
    max_batches_per_epoch=st.none() | st.integers(1, (1 << 32) - 1),
)


def _same_value(left, right) -> bool:
    if isinstance(left, dict) and left and all(
            isinstance(v, np.ndarray) for v in left.values()):
        return set(left) == set(right) and all(
            left[k].dtype == right[k].dtype and left[k].shape == right[k].shape
            and np.array_equal(left[k], right[k]) for k in left)
    return left == right


def same_message(left, right) -> bool:
    """Whether two protocol messages carry the same type and field values
    (model states compared dtype, shape and value for value)."""
    return type(left) is type(right) and all(
        _same_value(getattr(left, f.name), getattr(right, f.name))
        for f in dataclasses.fields(left))
