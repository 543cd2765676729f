"""Validation tests for the declarative scenario specs."""

import json

import pytest

from repro.scenarios import (
    AvailabilitySpec,
    ChurnSpec,
    DropoutSpec,
    NetworkSpec,
    ScenarioSpec,
    StragglerSpec,
)
from repro.ledger.codec import scenario_from_dict, scenario_to_dict


class TestAvailabilitySpec:
    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            AvailabilitySpec(offline_probability=1.5)
        with pytest.raises(ValueError):
            AvailabilitySpec(offline_probability=-0.1)

    def test_down_rounds_normalised_and_sorted(self):
        spec = AvailabilitySpec(down_rounds={2: [7, 3, 5]})
        assert spec.down_rounds[2] == (3, 5, 7)

    def test_down_rounds_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            AvailabilitySpec(down_rounds={0: (1, 1)})
        with pytest.raises(ValueError):
            AvailabilitySpec(down_rounds={0: (-1,)})
        with pytest.raises(ValueError):
            AvailabilitySpec(down_rounds={-1: (0,)})


class TestChurnSpec:
    def test_leave_must_follow_join(self):
        ChurnSpec(joins={3: 1}, leaves={3: 2})  # fine
        with pytest.raises(ValueError):
            ChurnSpec(joins={3: 5}, leaves={3: 5})
        with pytest.raises(ValueError):
            ChurnSpec(leaves={3: 0})  # implicit join at round 0

    def test_negative_ids_and_rounds_rejected(self):
        with pytest.raises(ValueError):
            ChurnSpec(joins={-1: 0})
        with pytest.raises(ValueError):
            ChurnSpec(joins={0: -1})


class TestStragglerSpec:
    def test_probability_needs_mean_delay(self):
        with pytest.raises(ValueError):
            StragglerSpec(probability=0.5)

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            StragglerSpec(probability=0.1, mean_delay=1.0, deadline=0.0)
        assert StragglerSpec(probability=0.1, mean_delay=1.0,
                             deadline=None).deadline is None


class TestDropoutSpec:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            DropoutSpec(probability=2.0)


class TestScenarioSpec:
    def test_component_types_enforced(self):
        with pytest.raises(TypeError):
            ScenarioSpec(dropouts=0.5)
        with pytest.raises(TypeError):
            ScenarioSpec(churn={"joins": {}})

    def test_min_participation_range(self):
        # the scenario owns the partial-round floor
        for floor in (1.5, -0.1):
            with pytest.raises(ValueError):
                ScenarioSpec(min_participation=floor)

    def test_seed_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=-1)
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0.5)

    def test_specs_are_frozen(self):
        spec = ScenarioSpec()
        with pytest.raises(AttributeError):
            spec.seed = 3


#: one case per validation rule of the specs: (constructor call, error)
INVALID_SPECS = {
    "availability-probability-above-one":
        (lambda: AvailabilitySpec(offline_probability=1.5), ValueError),
    "availability-probability-negative":
        (lambda: AvailabilitySpec(offline_probability=-0.1), ValueError),
    "availability-duplicate-client":
        (lambda: AvailabilitySpec(down_rounds={0: (1, 1)}), ValueError),
    "availability-negative-client":
        (lambda: AvailabilitySpec(down_rounds={0: (-1,)}), ValueError),
    "availability-negative-round":
        (lambda: AvailabilitySpec(down_rounds={-1: (0,)}), ValueError),
    "churn-leave-at-join":
        (lambda: ChurnSpec(joins={3: 5}, leaves={3: 5}), ValueError),
    "churn-leave-at-implicit-join":
        (lambda: ChurnSpec(leaves={3: 0}), ValueError),
    "churn-negative-client":
        (lambda: ChurnSpec(joins={-1: 0}), ValueError),
    "churn-negative-round":
        (lambda: ChurnSpec(leaves={0: -1}), ValueError),
    "stragglers-probability-above-one":
        (lambda: StragglerSpec(probability=1.5, mean_delay=1.0), ValueError),
    "stragglers-negative-mean-delay":
        (lambda: StragglerSpec(mean_delay=-1.0), ValueError),
    "stragglers-probability-without-delay":
        (lambda: StragglerSpec(probability=0.5), ValueError),
    "stragglers-zero-deadline":
        (lambda: StragglerSpec(deadline=0.0), ValueError),
    "dropouts-probability-above-one":
        (lambda: DropoutSpec(probability=2.0), ValueError),
    "dropouts-probability-negative":
        (lambda: DropoutSpec(probability=-0.5), ValueError),
    "network-negative-latency":
        (lambda: NetworkSpec(latency=-0.1), ValueError),
    "network-negative-jitter":
        (lambda: NetworkSpec(jitter=-0.1), ValueError),
    "network-zero-bandwidth":
        (lambda: NetworkSpec(bandwidth=0), ValueError),
    "network-flip-above-one":
        (lambda: NetworkSpec(flip_probability=1.5), ValueError),
    "network-truncate-negative":
        (lambda: NetworkSpec(truncate_probability=-0.1), ValueError),
    "network-reset-above-one":
        (lambda: NetworkSpec(reset_probability=1.01), ValueError),
    "network-negative-partition-client":
        (lambda: NetworkSpec(partitions={-1: "both"}), ValueError),
    "network-unknown-partition-direction":
        (lambda: NetworkSpec(partitions={2: "sideways"}), ValueError),
    "scenario-component-not-a-spec":
        (lambda: ScenarioSpec(stragglers={"probability": 0.1}), TypeError),
    "scenario-network-not-a-spec":
        (lambda: ScenarioSpec(network={"latency": 0.1}), TypeError),
    "scenario-min-participation-above-one":
        (lambda: ScenarioSpec(min_participation=1.5), ValueError),
    "scenario-negative-seed":
        (lambda: ScenarioSpec(seed=-1), ValueError),
    "scenario-fractional-seed":
        (lambda: ScenarioSpec(seed=0.5), ValueError),
}


@pytest.mark.parametrize("case", sorted(INVALID_SPECS))
def test_each_validation_rule_rejects_its_case(case):
    build, error = INVALID_SPECS[case]
    with pytest.raises(error):
        build()


#: valid specs, each setting one component away from its default
VALID_SCENARIOS = {
    "empty": ScenarioSpec(),
    "availability": ScenarioSpec(availability=AvailabilitySpec(
        offline_probability=0.1, down_rounds={3: (7, 0), 5: (2,)})),
    "churn": ScenarioSpec(churn=ChurnSpec(joins={11: 2, 4: 1}, leaves={4: 3})),
    "stragglers": ScenarioSpec(stragglers=StragglerSpec(
        probability=0.2, mean_delay=5.0, deadline=8.0)),
    "dropouts": ScenarioSpec(dropouts=DropoutSpec(probability=0.05)),
    "network": ScenarioSpec(network=NetworkSpec(
        latency=0.01, jitter=0.002, bandwidth=1e6, flip_probability=0.1,
        truncate_probability=0.05, reset_probability=0.01,
        partitions={3: "to_server", 1: "both"})),
    "everything": ScenarioSpec(
        availability=AvailabilitySpec(down_rounds={1: (0,)}),
        churn=ChurnSpec(joins={5: 1}), stragglers=StragglerSpec(
            probability=1.0, mean_delay=0.5),
        dropouts=DropoutSpec(probability=0.5),
        network=NetworkSpec(), min_participation=0.75, seed=12),
}


@pytest.mark.parametrize("case", sorted(VALID_SCENARIOS))
def test_valid_scenario_survives_the_ledger_codec_through_json(case):
    # JSON turns the schedules' integer keys into strings; the spec
    # constructors normalise them back, so the rebuilt spec is equal
    spec = VALID_SCENARIOS[case]
    payload = json.loads(json.dumps(scenario_to_dict(spec)))
    assert scenario_from_dict(payload) == spec
