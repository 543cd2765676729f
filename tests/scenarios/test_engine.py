"""Determinism and fault-decision tests for the FaultInjector engine."""

import pytest

from repro.scenarios import (
    FAILURE_CAUSES,
    AvailabilitySpec,
    ChurnSpec,
    ClientFault,
    DropoutSpec,
    FaultInjector,
    RoundPlan,
    ScenarioSpec,
    StragglerSpec,
)


class TestClientFault:
    def test_cause_vocabulary_enforced(self):
        ClientFault(0, "dropout")
        with pytest.raises(ValueError):
            ClientFault(0, "exploded")

    def test_causes_cover_pre_and_mid_round(self):
        assert set(FAILURE_CAUSES) == {
            "not_joined", "left", "offline", "dropout", "straggler"}


class TestRoundPlan:
    def test_empty_plan_is_noop(self):
        plan = RoundPlan(0, (1, 2), (1, 2), (), (), {}, None)
        assert plan.failures_by_client() == {}
        assert plan.round_delay() == 0.0

    def test_deadline_drops_late_stragglers(self):
        plan = RoundPlan(0, (4, 5, 6), (4, 5, 6), (), (5,),
                         {4: 1.0, 6: 9.0}, deadline=5.0)
        assert plan.failures_by_client() == {5: "dropout", 6: "straggler"}
        # the surviving straggler (client 4) sets the round duration
        assert plan.round_delay() == 1.0

    def test_a_delay_equal_to_the_deadline_survives(self):
        plan = RoundPlan(0, (4,), (4,), (), (), {4: 5.0}, deadline=5.0)
        assert plan.failures_by_client() == {}
        assert plan.round_delay() == 5.0

    def test_no_deadline_waits_for_everyone(self):
        plan = RoundPlan(0, (4,), (4,), (), (), {4: 42.0}, deadline=None)
        assert plan.failures_by_client() == {}
        assert plan.round_delay() == 42.0

    def test_failures_by_client_in_record_order(self):
        plan = RoundPlan(0, (1, 2, 3, 4), (2, 3, 4), (ClientFault(1, "left"),),
                         (3,), {2: 8.0, 4: 1.0}, deadline=4.0)
        assert list(plan.failures_by_client().items()) == [
            (1, "left"), (3, "dropout"), (2, "straggler")]


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
        for client_id in range(30):
            alone = injector.plan_round(2, [client_id])
            assert (client_id in alone.dropouts) == (client_id in full.dropouts)
            assert alone.delays.get(client_id) == full.delays.get(client_id)
            pre_full = {f.client_id: f.cause for f in full.pre_faults}
            pre_alone = {f.client_id: f.cause for f in alone.pre_faults}
            assert pre_alone.get(client_id) == pre_full.get(client_id)

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
        assert plan.trainable == (4, 2, 9)
        assert plan.pre_faults == () and plan.dropouts == ()
        assert plan.delays == {} and plan.failures_by_client() == {}


class TestFaultInjectorDecisions:
    def test_churn_presence(self):
        injector = FaultInjector(ScenarioSpec(
            churn=ChurnSpec(joins={5: 3}, leaves={2: 4})))
        assert injector.presence(5, 0) == "not_joined"
        assert injector.presence(5, 3) is None
        assert injector.presence(2, 3) is None
        assert injector.presence(2, 4) == "left"
        assert injector.presence(7, 100) is None

    def test_scheduled_down_rounds(self):
        injector = FaultInjector(ScenarioSpec(
            availability=AvailabilitySpec(down_rounds={1: (3, 4)})))
        plan = injector.plan_round(1, [2, 3, 4])
        assert plan.trainable == (2,)
        assert {f.client_id: f.cause for f in plan.pre_faults} == {
            3: "offline", 4: "offline"}
        assert injector.plan_round(0, [2, 3, 4]).trainable == (2, 3, 4)

    def test_certain_dropout(self):
        injector = FaultInjector(ScenarioSpec(dropouts=DropoutSpec(1.0), seed=3))
        plan = injector.plan_round(0, [1, 2, 3])
        assert plan.dropouts == (1, 2, 3)
        assert plan.failures_by_client() == {
            1: "dropout", 2: "dropout", 3: "dropout"}

    def test_certain_offline_leaves_nothing_trainable(self):
        injector = FaultInjector(ScenarioSpec(
            availability=AvailabilitySpec(offline_probability=1.0), seed=3))
        plan = injector.plan_round(0, [1, 2])
        assert plan.trainable == ()
        assert plan.dropouts == ()

    def test_straggler_delays_positive_and_deadline_forwarded(self):
        injector = FaultInjector(ScenarioSpec(
            stragglers=StragglerSpec(probability=1.0, mean_delay=2.0,
                                     deadline=7.5), seed=3))
        plan = injector.plan_round(0, range(10))
        assert set(plan.delays) == set(range(10))
        assert all(d > 0 for d in plan.delays.values())
        assert plan.deadline == 7.5

    def test_spec_type_enforced(self):
        with pytest.raises(TypeError):
            FaultInjector({"seed": 0})
