"""Hypothesis strategies and settings shared by the property tests.

Every property test takes its settings from here — a named profile plus its
own example count through :func:`scaled_max_examples`, so the nightly
``HYPOTHESIS_EXAMPLES_MULTIPLIER`` scales the whole suite::

    from strategies import STANDARD, model_states, scaled_max_examples

    @settings(STANDARD, max_examples=scaled_max_examples(50))
    @given(state=model_states())
    def test_...(state): ...
"""

from .data import count_matrices, generator_cases, partition_cases
from .federated import client_ids, cohort_and_survivors, finite, round_records
from .registry import SHAPES, SIGMAS, codebook_configs, tie_configs
from .settings import DETERMINISM, STANDARD, scaled_max_examples
from .wire import model_states, recipes, same_message

__all__ = [
    "DETERMINISM",
    "SHAPES",
    "SIGMAS",
    "STANDARD",
    "client_ids",
    "codebook_configs",
    "cohort_and_survivors",
    "count_matrices",
    "finite",
    "generator_cases",
    "model_states",
    "partition_cases",
    "recipes",
    "round_records",
    "same_message",
    "scaled_max_examples",
    "tie_configs",
]
