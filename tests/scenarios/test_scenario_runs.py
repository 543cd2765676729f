"""End-to-end scenario runs through the simulation.

Covers the tentpole guarantees: the zero-fault identity (an empty scenario
leaves every executor back-end bit-identical to a scenario-free run), full
reproducibility of injected faults across repeated runs and across back-ends,
partial-round aggregation with the participation floor, label drift with
(encrypted) re-registration, and the robustness report.
"""

import random

import numpy as np
import pytest

from repro.api import Session
from repro.core import (DubheConfig, DubheSelector, RandomSelector,
                        SecureDubheSelector)
from repro.crypto.keyagent import KeyAgent
from repro.data.partition import EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions
from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.federated.client import LocalTrainingConfig
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.nn.models import MLP
from repro.scenarios import (
    FAILURE_CAUSES,
    AvailabilitySpec,
    ChurnSpec,
    DriftSpec,
    DropoutSpec,
    ScenarioSpec,
    StragglerSpec,
)

TOL = 1e-10
BACKENDS = ("sequential", "vectorized", "parallel")

#: churn + stragglers + dropouts, the acceptance scenario; client 0 joining
#: far in the future guarantees at least one deterministic fault
FAULTY = ScenarioSpec(
    churn=ChurnSpec(joins={0: 100}, leaves={5: 2}),
    availability=AvailabilitySpec(offline_probability=0.15),
    stragglers=StragglerSpec(probability=0.3, mean_delay=3.0, deadline=4.0),
    dropouts=DropoutSpec(probability=0.2),
    seed=11,
)


class RoundRobinSelector:
    """Deterministic cohort schedule, independent of any RNG."""

    def __init__(self, n_clients: int, k: int):
        self.n_clients = n_clients
        self.k = k

    def select(self, round_index: int):
        start = (round_index * self.k) % self.n_clients
        return [(start + i) % self.n_clients for i in range(self.k)]


@pytest.fixture(scope="module")
def federation():
    generator = make_synthetic_mnist(seed=0)
    global_dist = half_normal_class_proportions(10, 5.0)
    partition = EMDTargetPartitioner(12, 20, 1.0, seed=0).partition(global_dist)
    test_set = make_uniform_test_set(generator, samples_per_class=4, seed=1)
    return generator, partition, test_set


def make_sim(federation, mode="sequential", scenario=None, rounds=3,
             selector=None):
    generator, partition, test_set = federation
    config = FederatedConfig(
        rounds=rounds,
        executor_mode=mode,
        num_workers=2 if mode == "parallel" else None,
        local=LocalTrainingConfig(batch_size=8, learning_rate=1e-3),
        seed=0,
        scenario=scenario,
    )
    return FederatedSimulation(
        partition=partition,
        generator=generator,
        model_factory=lambda: MLP(64, 10, hidden=(16,), seed=7),
        selector=selector or RoundRobinSelector(partition.n_clients, 4),
        test_set=test_set,
        config=config,
    )


def participation_log(history):
    """The (planned, actual, failures) trace the acceptance check compares."""
    return [(r.selected_clients, r.participants, dict(r.failures))
            for r in history.records]


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("mode", BACKENDS)
    def test_empty_scenario_is_bit_identical(self, federation, mode):
        with make_sim(federation, mode, scenario=None) as bare, \
                make_sim(federation, mode, scenario=ScenarioSpec()) as empty:
            bare_history = bare.run()
            empty_history = empty.run()
            np.testing.assert_allclose(bare_history.accuracies(),
                                       empty_history.accuracies(),
                                       rtol=0, atol=TOL)
            np.testing.assert_allclose(bare_history.population_biases(),
                                       empty_history.population_biases(),
                                       rtol=0, atol=TOL)
            bare_state = bare.server.global_state()
            empty_state = empty.server.global_state()
            for key in bare_state:
                np.testing.assert_allclose(empty_state[key], bare_state[key],
                                           rtol=0, atol=TOL)
            for record in empty_history.records:
                assert record.participants == record.selected_clients
                assert record.failures == {}
                assert not record.aggregation_skipped
                assert record.round_delay == 0.0

    def test_min_participation_alone_preserves_identity(self, federation):
        # a pure aggregation-policy spec injects nothing and must not perturb
        with make_sim(federation, scenario=None) as bare, \
                make_sim(federation,
                         scenario=ScenarioSpec(min_participation=0.5)) as floor:
            np.testing.assert_allclose(bare.run().accuracies(),
                                       floor.run().accuracies(),
                                       rtol=0, atol=TOL)


class TestFaultedRuns:
    @pytest.mark.parametrize("mode", BACKENDS)
    def test_faulty_run_completes_and_reports(self, federation, mode):
        with make_sim(federation, mode, scenario=FAULTY) as sim:
            history = sim.run()
        assert len(history) == 3
        causes = [c for r in history.records for c in r.failures.values()]
        assert "not_joined" in causes  # client 0 never joined
        for record in history.records:
            assert set(record.participants) <= set(record.selected_clients)
            assert set(record.failures.values()) <= set(FAILURE_CAUSES)
            assert set(record.participants).isdisjoint(record.failures)
            # the paper's metrics are reported for planned AND actual cohorts
            assert 0.0 <= record.population_bias <= 2.0
            assert record.actual_population_bias is not None
            assert record.test_accuracy is not None

    def test_repeated_runs_are_identical(self, federation):
        logs, accuracies = [], []
        for _ in range(2):
            with make_sim(federation, scenario=FAULTY) as sim:
                history = sim.run()
                logs.append(participation_log(history))
                accuracies.append(history.accuracies())
        assert logs[0] == logs[1]
        np.testing.assert_allclose(accuracies[0], accuracies[1], rtol=0, atol=0)

    def test_fault_parity_across_backends(self, federation):
        logs, finals = {}, {}
        for mode in BACKENDS:
            with make_sim(federation, mode, scenario=FAULTY) as sim:
                history = sim.run()
                logs[mode] = participation_log(history)
                finals[mode] = history.accuracies()
        for mode in BACKENDS[1:]:
            assert logs[mode] == logs["sequential"]
            np.testing.assert_allclose(finals[mode], finals["sequential"],
                                       rtol=0, atol=TOL)

    def test_survivors_match_sequential_of_survivors(self, federation):
        # dropping rows of the batched cohort must equal never training them
        scenario = ScenarioSpec(dropouts=DropoutSpec(0.4), seed=23)
        with make_sim(federation, "vectorized", scenario=scenario) as faulted, \
                make_sim(federation, "sequential", scenario=scenario) as reference:
            faulted.run()
            reference.run()
            faulted_state = faulted.server.global_state()
            reference_state = reference.server.global_state()
            for key in reference_state:
                np.testing.assert_allclose(faulted_state[key],
                                           reference_state[key],
                                           rtol=0, atol=TOL)


class TestPartialRoundPolicy:
    def test_total_dropout_skips_every_round(self, federation):
        scenario = ScenarioSpec(dropouts=DropoutSpec(1.0),
                                min_participation=0.5, seed=3)
        with make_sim(federation, scenario=scenario) as sim:
            history = sim.run()
            assert all(r.aggregation_skipped for r in history.records)
            assert sim.server.rounds_skipped == 3
            assert sim.server.rounds_completed == 0
            # the global model was carried forward untouched
            initial = MLP(64, 10, hidden=(16,), seed=7).state_dict()
            final = sim.server.global_state()
            for key in initial:
                np.testing.assert_array_equal(final[key], initial[key])
            for record in history.records:
                assert record.aggregation_skipped
                assert record.actual_clients == ()
                assert np.isnan(record.actual_population_bias)

    def test_floor_zero_aggregates_any_survivor(self, federation):
        scenario = ScenarioSpec(
            availability=AvailabilitySpec(offline_probability=0.5), seed=9)
        with make_sim(federation, scenario=scenario) as sim:
            history = sim.run()
            for record in history.records:
                assert record.aggregation_skipped == (not record.participants)


class TestLabelDrift:
    def _dubhe(self, partition, k=4, seed=0):
        config = DubheConfig(num_classes=10, participants_per_round=k,
                             thresholds={1: 0.7, 2: 0.1, 10: 0.0},
                             key_size=128)
        return DubheSelector(partition.client_distributions(), config, seed=seed)

    def test_drift_rolls_partition_and_reregisters(self, federation):
        generator, partition, test_set = federation
        selector = self._dubhe(partition)
        original_counts = partition.client_class_counts.copy()
        original_registry = selector.registration_batch.overall_registry()
        scenario = ScenarioSpec(drift=DriftSpec(period=2, shift=1), seed=5)
        with make_sim(federation, scenario=scenario, selector=selector) as sim:
            history = sim.run()
            assert [r.drift_applied for r in history.records] == [
                False, False, True]
            np.testing.assert_array_equal(
                sim.partition.client_class_counts,
                np.roll(original_counts, 1, axis=1))
            np.testing.assert_allclose(
                selector.client_distributions,
                sim.partition.client_distributions())
            refreshed_registry = selector.registration_batch.overall_registry()
            assert not np.array_equal(refreshed_registry, original_registry)
        # the source partition object is untouched (drift replaces, not mutates)
        np.testing.assert_array_equal(partition.client_class_counts,
                                      original_counts)

    def test_drift_invalidates_cached_clients(self, federation):
        scenario = ScenarioSpec(drift=DriftSpec(period=1, shift=2), seed=5)
        with make_sim(federation, scenario=scenario, rounds=2) as sim:
            sim.run_round(0)
            before = sim.client(1).dataset
            sim.run_round(1)  # drift fires before this round
            after = sim.client(1).dataset
            assert before is not after
            assert not np.array_equal(np.sort(np.asarray(before.y)),
                                      np.sort(np.asarray(after.y)))

    def test_secure_selector_reregisters_after_each_drift(self, federation):
        # the encrypted round re-registers the drifted federation: registry,
        # probabilities and cohorts are those of a plaintext selector over the
        # drifted partition.  A pure rotation leaves a stale registry's
        # cohorts right too, so the registry is what shows a skipped refresh
        _, partition, _ = federation
        config = self._dubhe(partition).config
        secure = SecureDubheSelector(
            partition.client_distributions(), config, seed=0,
            agent=KeyAgent(key_size=128, rng=random.Random(0)))
        plaintext = self._dubhe(partition)
        scenario = ScenarioSpec(drift=DriftSpec(period=2, shift=1), seed=5)
        with make_sim(federation, scenario=scenario, rounds=5,
                      selector=secure) as sim:
            for round_index in range(5):
                record = sim.run_round(round_index)
                if record.drift_applied:
                    plaintext.refresh_registrations(
                        sim.partition.client_distributions())
                    assert np.array_equal(secure.overall_registry,
                                          plaintext.overall_registry)
                    assert np.array_equal(secure.probabilities,
                                          plaintext.probabilities)
                assert record.selected_clients == tuple(
                    plaintext.select(round_index))
            assert [r.drift_applied for r in sim.history.records] == [
                False, False, True, False, True]

    def test_drift_hands_a_plain_selector_the_new_distributions(self, federation):
        # a selector without refresh_registrations gets the drifted rows
        _, partition, _ = federation
        selector = RandomSelector(partition.client_distributions(), 4, seed=0)
        scenario = ScenarioSpec(drift=DriftSpec(period=1, shift=1), seed=5)
        with make_sim(federation, scenario=scenario, rounds=2,
                      selector=selector) as sim:
            sim.run_round(0)
            sim.run_round(1)
            np.testing.assert_array_equal(selector.client_distributions,
                                          sim.partition.client_distributions())
            np.testing.assert_array_equal(
                selector.client_distributions,
                np.roll(partition.client_distributions(), 1, axis=1))


class TestReports:
    def test_session_scenario_report(self, federation):
        generator, partition, test_set = federation
        config = FederatedConfig(
            rounds=3, local=LocalTrainingConfig(batch_size=8, learning_rate=1e-3),
            seed=0)
        session = Session(config).with_federation(
            partition=partition, generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=7),
            selector=RoundRobinSelector(partition.n_clients, 4),
            test_set=test_set,
        ).with_scenario(FAULTY, name="acceptance")
        with session:
            report = session.run().report
        assert report.name == "acceptance"
        assert report.rounds == 3
        assert sum(report.failure_counts.values()) >= 1
        assert np.isfinite(report.final_accuracy())
        assert np.isfinite(report.mean_actual_bias())
        summary = report.summary()
        assert summary["skipped_rounds"] == 0
        assert 0.0 <= summary["baseline_bias"] <= 2.0

