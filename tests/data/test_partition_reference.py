"""The partition kernels against the per-client loops they replaced.

``EMDTargetPartitioner`` draws every client with one 2-D ``multinomial``
and hands out dominating classes with one scatter; ``ClientPartition``
normalises, averages and measures whole ``(n, C)`` matrices.  Each must
return exactly what the per-client loops in
``tests/reference/partition_loops.py`` return — counts, ``alpha``,
distributions, populations and ``EMD_avg`` bit for bit — and leave the
generator in exactly the same state.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings

from strategies import STANDARD, count_matrices, partition_cases, scaled_max_examples
from reference.partition_loops import (
    reference_achieved_emd_avg,
    reference_client_distributions,
    reference_partition,
    reference_selection_population,
)
from repro.data.partition import ClientPartition, EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_kernels_match(partition, selected):
    counts = partition.client_class_counts
    _assert_same_array(partition.client_distributions(),
                       reference_client_distributions(counts))
    _assert_same_array(partition.selection_population(selected),
                       reference_selection_population(counts, selected))
    assert repr(partition.achieved_emd_avg()) == repr(reference_achieved_emd_avg(counts))


#: a heavy class 0 over three classes: most two- and three-class slices of the
#: quota pool repeat it, and a three-class slice can redraw twice
_REPEATS = (dict(n_clients=60, samples_per_client=16, emd_target=1.0,
                 dominating_classes=(2, 3), min_alpha=0.0, seed=0),
            [8.0, 1.0, 1.0], [0, 59, 59])
_REPEATS_ALL_CLASSES = (dict(n_clients=40, samples_per_client=8, emd_target=1.5,
                             dominating_classes=(1, 2, 4), min_alpha=0.5, seed=3),
                        [5.0, 0.0, 1.0, 1.0], [1, 2, 3])


@settings(STANDARD, max_examples=scaled_max_examples(40))
@given(partition_cases())
@example(_REPEATS)
@example(_REPEATS_ALL_CLASSES)
def test_partition_matches_reference(case):
    params, weights, selected = case
    fast = EMDTargetPartitioner(**params)
    ref = EMDTargetPartitioner(**params)
    actual = fast.partition(weights)
    expected = reference_partition(ref, weights)

    _assert_same_array(actual.client_class_counts, expected.client_class_counts)
    assert repr(actual.metadata["alpha"]) == repr(expected.metadata["alpha"])
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
    _assert_kernels_match(actual, selected)


@settings(STANDARD, max_examples=scaled_max_examples(40))
@given(count_matrices())
@example(([[0, 0, 0], [3, 0, 1], [0, 0, 0]], [0, 2, 1]))
@example(([[0]], [0]))
def test_partition_kernels_match_reference_on_any_counts(case):
    counts, selected = case
    _assert_kernels_match(ClientPartition(np.array(counts), len(counts[0])), selected)


class CountingGenerator:
    """A ``Generator`` that counts its method calls into a shared ``Counter``."""

    def __init__(self, rng, calls):
        self._rng = rng
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return attr(*args, **kwargs)
        return counted


def _rng_calls(monkeypatch, build):
    """Method calls *build* makes on every generator it creates."""
    calls = Counter()
    default_rng = np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng",
                      lambda seed=None: CountingGenerator(default_rng(seed), calls))
        build()
    return calls


@pytest.mark.parametrize("n_clients", [10**3, 10**4])
def test_rng_calls_do_not_grow_with_n_clients(monkeypatch, n_clients):
    """One draw per client and per probe is gone; only repeated-class rows redraw."""
    global_dist = half_normal_class_proportions(10, 10.0)
    fast = _rng_calls(monkeypatch, lambda: EMDTargetPartitioner(
        n_clients, 64, 1.5, seed=0).partition(global_dist))
    loops = _rng_calls(monkeypatch, lambda: reference_partition(
        EMDTargetPartitioner(n_clients, 64, 1.5, seed=0), global_dist))

    # the per-client loops: one multinomial per client, 2 x 200 probes
    assert loops["multinomial"] == n_clients + 400
    # with dominating_classes (1, 2) a repeated-class row redraws exactly once
    repeated_rows = loops["choice"] - 1
    assert repeated_rows > 0
    # the fast path redraws with integers(len(candidates)), the one bounded
    # draw choice(candidates) makes, next to the probe seed's integers call
    assert fast == {"choice": 1, "shuffle": 1, "integers": 1 + repeated_rows,
                    "multinomial": 3}


@pytest.mark.parametrize("case", [_REPEATS, _REPEATS_ALL_CLASSES])
def test_examples_exercise_the_redraw_path(monkeypatch, case):
    params, weights, _ = case
    calls = _rng_calls(monkeypatch, lambda: EMDTargetPartitioner(**params).partition(weights))
    # one integers call seeds the calibration probes; the rest are redraws
    assert calls["integers"] > 1
