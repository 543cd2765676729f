"""Validation tests for the declarative scenario specs."""

import dataclasses

import pytest

from repro.scenarios import (
    AvailabilitySpec,
    ChurnSpec,
    DriftSpec,
    DropoutSpec,
    ScenarioSpec,
    StragglerSpec,
)


class TestAvailabilitySpec:
    def test_defaults_are_empty(self):
        spec = AvailabilitySpec()
        assert spec.is_empty()

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            AvailabilitySpec(offline_probability=1.5)
        with pytest.raises(ValueError):
            AvailabilitySpec(offline_probability=-0.1)

    def test_down_rounds_normalised_and_sorted(self):
        spec = AvailabilitySpec(down_rounds={2: [7, 3, 5]})
        assert spec.down_rounds[2] == (3, 5, 7)
        assert not spec.is_empty()

    def test_down_rounds_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            AvailabilitySpec(down_rounds={0: (1, 1)})
        with pytest.raises(ValueError):
            AvailabilitySpec(down_rounds={0: (-1,)})
        with pytest.raises(ValueError):
            AvailabilitySpec(down_rounds={-1: (0,)})


class TestChurnSpec:
    def test_defaults_are_empty(self):
        assert ChurnSpec().is_empty()

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
    def test_defaults_are_empty(self):
        assert StragglerSpec().is_empty()

    def test_probability_needs_mean_delay(self):
        with pytest.raises(ValueError):
            StragglerSpec(probability=0.5)
        assert not StragglerSpec(probability=0.5, mean_delay=1.0).is_empty()

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            StragglerSpec(probability=0.1, mean_delay=1.0, deadline=0.0)
        assert StragglerSpec(probability=0.1, mean_delay=1.0,
                             deadline=None).deadline is None


class TestDropoutSpec:
    def test_probability_validated(self):
        assert DropoutSpec().is_empty()
        with pytest.raises(ValueError):
            DropoutSpec(probability=2.0)


class TestDriftSpec:
    def test_defaults_are_empty(self):
        assert DriftSpec().is_empty()

    def test_period_with_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(period=5, shift=0)
        with pytest.raises(ValueError):
            DriftSpec(period=-1)

    def test_secure_knobs_are_retired(self):
        # a SecureDubheSelector re-registers itself; the ledger drops these
        # keys from older records (repro.ledger.codec.RETIRED_DRIFT_KEYS)
        assert [f.name for f in dataclasses.fields(DriftSpec)] == ["period", "shift"]
        with pytest.raises(TypeError):
            DriftSpec(period=2, key_size=128)


class TestScenarioSpec:
    def test_default_is_empty(self):
        assert ScenarioSpec().is_empty()

    def test_min_participation_alone_keeps_empty(self):
        # the participation floor is aggregation policy, not a fault source
        assert ScenarioSpec(min_participation=0.5).is_empty()

    def test_any_fault_source_makes_it_non_empty(self):
        assert not ScenarioSpec(dropouts=DropoutSpec(0.1)).is_empty()
        assert not ScenarioSpec(churn=ChurnSpec(joins={0: 1})).is_empty()
        assert not ScenarioSpec(drift=DriftSpec(period=3)).is_empty()
        assert not ScenarioSpec(
            stragglers=StragglerSpec(probability=0.1, mean_delay=1.0)).is_empty()
        assert not ScenarioSpec(
            availability=AvailabilitySpec(offline_probability=0.1)).is_empty()

    def test_component_types_enforced(self):
        with pytest.raises(TypeError):
            ScenarioSpec(dropouts=0.5)
        with pytest.raises(TypeError):
            ScenarioSpec(churn={"joins": {}})

    def test_min_participation_range(self):
        with pytest.raises(ValueError):
            ScenarioSpec(min_participation=1.5)

    def test_seed_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=-1)
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0.5)

    def test_specs_are_frozen(self):
        spec = ScenarioSpec()
        with pytest.raises(AttributeError):
            spec.seed = 3
