"""Determinism and fault-decision tests for the FaultInjector engine."""

import numpy as np
import pytest

from repro.scenarios import (
    FAILURE_CAUSES,
    AvailabilitySpec,
    ChurnSpec,
    DropoutSpec,
    FaultInjector,
    RoundPlan,
    ScenarioSpec,
    StragglerSpec,
)


def straggle_delay(spec, round_index, client_id):
    """A straggling client's delay, drawn as the injector draws it: the
    mid-round stream (key ``(seed, round, client, 1)``) draws dropout,
    straggle, then the delay."""
    rng = np.random.default_rng([spec.seed, round_index, client_id, 1])
    rng.random(2)
    return float(rng.exponential(spec.stragglers.mean_delay))


def stragglers(deadline, seed=3):
    return ScenarioSpec(stragglers=StragglerSpec(
        probability=1.0, mean_delay=5.0, deadline=deadline), seed=seed)


class TestFailureCauses:
    def test_causes_cover_pre_and_mid_round(self):
        assert set(FAILURE_CAUSES) == {
            "not_joined", "left", "offline", "dropout", "straggler"}

    def test_plans_use_the_cause_vocabulary(self):
        spec = ScenarioSpec(
            churn=ChurnSpec(joins={0: 2}, leaves={1: 1}),
            availability=AvailabilitySpec(offline_probability=0.2),
            stragglers=StragglerSpec(probability=0.4, mean_delay=3.0,
                                     deadline=2.0),
            dropouts=DropoutSpec(probability=0.3), seed=5)
        plan = FaultInjector(spec).plan_round(1, range(40))
        assert set(plan.failures.values()) == set(FAILURE_CAUSES)


class TestRoundDelay:
    def test_deadline_drops_late_stragglers(self):
        spec = stragglers(deadline=5.0)
        delays = {c: straggle_delay(spec, 0, c) for c in range(10)}
        late = {c for c, delay in delays.items() if delay > 5.0}
        assert late and len(late) < len(delays)
        plan = FaultInjector(spec).plan_round(0, range(10))
        assert plan.trainable == tuple(range(10))
        assert plan.failures == {c: "straggler" for c in sorted(late)}
        # the slowest surviving straggler sets the round duration
        assert plan.round_delay == max(
            delay for c, delay in delays.items() if c not in late)

    def test_a_delay_equal_to_the_deadline_survives(self):
        delay = straggle_delay(stragglers(deadline=None), 0, 4)
        plan = FaultInjector(stragglers(deadline=delay)).plan_round(0, [4])
        assert plan.failures == {}
        assert plan.round_delay == delay

    def test_no_deadline_waits_for_everyone(self):
        spec = stragglers(deadline=None)
        plan = FaultInjector(spec).plan_round(0, range(10))
        assert plan.failures == {}
        assert plan.round_delay == max(
            straggle_delay(spec, 0, c) for c in range(10))

    def test_failures_in_record_order(self):
        # pre-round faults, then dropouts, then late stragglers — not
        # cohort order: client 2 straggles past the deadline, 3 drops out
        spec = ScenarioSpec(
            churn=ChurnSpec(leaves={1: 1}), dropouts=DropoutSpec(0.3),
            stragglers=StragglerSpec(probability=0.5, mean_delay=4.0,
                                     deadline=4.0), seed=4)
        plan = FaultInjector(spec).plan_round(1, [1, 2, 3, 4])
        assert plan.trainable == (2, 3, 4)
        assert list(plan.failures.items()) == [
            (1, "left"), (3, "dropout"), (2, "straggler")]
        assert plan.round_delay == straggle_delay(spec, 1, 4)


class TestFaultInjectorDeterminism:
    SPEC = ScenarioSpec(
        availability=AvailabilitySpec(offline_probability=0.3),
        stragglers=StragglerSpec(probability=0.4, mean_delay=3.0, deadline=5.0),
        dropouts=DropoutSpec(probability=0.3),
        seed=17,
    )

    def test_same_inputs_same_plan(self):
        injector = FaultInjector(self.SPEC)
        plans = [injector.plan_round(4, range(20)) for _ in range(3)]
        assert plans[0] == plans[1] == plans[2]

    def test_decisions_independent_of_cohort_composition(self):
        # a client's fate at (round, client) must not depend on who else was
        # selected — that is what makes runs comparable across backends and
        # selectors
        injector = FaultInjector(self.SPEC)
        full = injector.plan_round(2, range(30))
        alone = [injector.plan_round(2, [client_id]) for client_id in range(30)]
        for client_id, plan in enumerate(alone):
            assert ((client_id in plan.trainable)
                    == (client_id in full.trainable))
            assert plan.failures.get(client_id) == full.failures.get(client_id)
        assert full.round_delay == max(plan.round_delay for plan in alone)
        assert full.round_delay > 0

    def test_different_seeds_differ(self):
        a = FaultInjector(self.SPEC).plan_round(0, range(50))
        b = FaultInjector(ScenarioSpec(
            availability=self.SPEC.availability,
            stragglers=self.SPEC.stragglers,
            dropouts=self.SPEC.dropouts,
            seed=18,
        )).plan_round(0, range(50))
        assert a != b

    def test_empty_spec_plans_nothing(self):
        plan = FaultInjector(ScenarioSpec()).plan_round(3, [4, 2, 9])
        assert plan == RoundPlan(trainable=(4, 2, 9), failures={},
                                 round_delay=0.0)


class TestFaultInjectorDecisions:
    def test_churn(self):
        injector = FaultInjector(ScenarioSpec(
            churn=ChurnSpec(joins={5: 3}, leaves={2: 4})))
        assert injector.plan_round(0, [5]).failures == {5: "not_joined"}
        assert injector.plan_round(3, [5, 2]).failures == {}
        assert injector.plan_round(4, [2]).failures == {2: "left"}
        assert injector.plan_round(100, [7]).failures == {}

    def test_scheduled_down_rounds(self):
        injector = FaultInjector(ScenarioSpec(
            availability=AvailabilitySpec(down_rounds={1: (3, 4)})))
        plan = injector.plan_round(1, [2, 3, 4])
        assert plan.trainable == (2,)
        assert plan.failures == {3: "offline", 4: "offline"}
        assert injector.plan_round(0, [2, 3, 4]).trainable == (2, 3, 4)

    def test_certain_dropout(self):
        injector = FaultInjector(ScenarioSpec(dropouts=DropoutSpec(1.0), seed=3))
        plan = injector.plan_round(0, [1, 2, 3])
        assert plan.trainable == (1, 2, 3)
        assert plan.failures == {1: "dropout", 2: "dropout", 3: "dropout"}

    def test_certain_offline_leaves_nothing_trainable(self):
        injector = FaultInjector(ScenarioSpec(
            availability=AvailabilitySpec(offline_probability=1.0), seed=3))
        plan = injector.plan_round(0, [1, 2])
        assert plan.trainable == ()
        assert plan.failures == {1: "offline", 2: "offline"}

    def test_straggler_delays_against_the_deadline(self):
        spec = ScenarioSpec(stragglers=StragglerSpec(
            probability=1.0, mean_delay=2.0, deadline=7.5), seed=3)
        delays = [straggle_delay(spec, 0, c) for c in range(10)]
        plan = FaultInjector(spec).plan_round(0, range(10))
        assert all(delay > 0 for delay in delays)
        assert plan.failures == {c: "straggler"
                                 for c, delay in enumerate(delays) if delay > 7.5}
        assert plan.round_delay == max(d for d in delays if d <= 7.5)

    def test_spec_type_enforced(self):
        with pytest.raises(TypeError):
            FaultInjector({"seed": 0})
