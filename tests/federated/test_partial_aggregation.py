"""Partial-round aggregation: the survivors' average and the server's skip policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import STANDARD, cohort_and_survivors, scaled_max_examples
from repro.federated.aggregation import weighted_average_states
from repro.federated.server import FederatedServer
from repro.nn.models import MLP


def mlp_factory():
    return MLP(8, 2, hidden=(4,), seed=0)


class TestPartialRoundAverage:
    @settings(STANDARD, max_examples=scaled_max_examples(100))
    @given(case=cohort_and_survivors())
    def test_survivors_are_averaged_uniformly(self, case):
        # FedVC virtual clients hold equal sample counts, so the plain mean
        # over the survivors is sample-weighted FedAvg restricted to them
        size, survivors = case
        server = FederatedServer(mlp_factory)
        template = server.global_state()
        states = [{k: np.full_like(v, float(i)) for k, v in template.items()}
                  for i in range(size)]
        arrived = [states[i] for i in survivors]
        merged = server.aggregate(arrived, expected_count=size)
        fedavg = weighted_average_states(arrived, [64] * len(arrived))
        for key in template:
            np.testing.assert_allclose(merged[key], np.mean(survivors),
                                       atol=1e-12)
            np.testing.assert_allclose(merged[key], fedavg[key], atol=1e-12)

    @settings(STANDARD, max_examples=scaled_max_examples(50))
    @given(size=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_full_survival_equals_the_full_cohort_average(self, size, seed):
        rng = np.random.default_rng(seed)
        template = FederatedServer(mlp_factory).global_state()
        states = [{k: rng.standard_normal(v.shape) for k, v in template.items()}
                  for _ in range(size)]
        partial = FederatedServer(mlp_factory).aggregate(
            states, expected_count=size, min_participation=1.0)
        full = FederatedServer(mlp_factory).aggregate(states)
        for key in template:
            np.testing.assert_array_equal(partial[key], full[key])

    @settings(STANDARD, max_examples=scaled_max_examples(50))
    @given(case=cohort_and_survivors(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_partial_average_is_a_convex_combination_of_survivors(self, case,
                                                                  seed):
        size, survivors = case
        rng = np.random.default_rng(seed)
        server = FederatedServer(mlp_factory)
        template = server.global_state()
        states = [{k: rng.standard_normal(v.shape) for k, v in template.items()}
                  for _ in range(size)]
        arrived = [states[i] for i in survivors]
        merged = server.aggregate(arrived, expected_count=size)
        for key in template:
            stacked = np.stack([s[key] for s in arrived])
            np.testing.assert_allclose(merged[key], stacked.mean(axis=0),
                                       atol=1e-12)
            assert np.all(merged[key] >= stacked.min(axis=0) - 1e-12)
            assert np.all(merged[key] <= stacked.max(axis=0) + 1e-12)


class TestServerSkipPolicy:
    def _server(self):
        return FederatedServer(mlp_factory)

    def _state(self, value):
        server = self._server()
        return {k: np.full_like(v, value) for k, v in server.global_state().items()}

    def test_round_below_floor_is_skipped(self):
        server = self._server()
        before = server.global_state()
        out = server.aggregate([self._state(1.0)], expected_count=4,
                               min_participation=0.5)
        assert out is None
        assert server.rounds_skipped == 1 and server.rounds_completed == 0
        after = server.global_state()
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])

    def test_round_at_floor_aggregates(self):
        server = self._server()
        out = server.aggregate([self._state(1.0), self._state(3.0)],
                               expected_count=4, min_participation=0.5)
        assert out is not None
        assert server.rounds_completed == 1 and server.rounds_skipped == 0
        np.testing.assert_allclose(
            server.global_state()["net.layers.1.weight"], 2.0)

    def test_no_survivors_always_skips(self):
        server = self._server()
        before = server.global_state()
        assert server.aggregate([], expected_count=4,
                                min_participation=0.0) is None
        after = server.global_state()
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])

    def test_empty_without_expected_count_still_raises(self):
        with pytest.raises(ValueError):
            self._server().aggregate([])

    def test_a_skip_is_reported_by_its_own_call(self):
        server = self._server()
        assert server.aggregate([], expected_count=2) is None
        out = server.aggregate([self._state(1.0)], expected_count=2,
                               min_participation=0.5)
        np.testing.assert_allclose(out["net.layers.1.weight"], 1.0)
        assert (server.rounds_skipped, server.rounds_completed) == (1, 1)

    def test_invalid_arguments(self):
        server = self._server()
        with pytest.raises(ValueError):
            server.aggregate([self._state(1.0)], expected_count=0)
        with pytest.raises(ValueError):
            server.aggregate([self._state(1.0)], expected_count=2,
                             min_participation=1.5)
