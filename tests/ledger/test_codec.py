"""Tests of the ledger codecs (repro/ledger/codec.py) and run context."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from repro.federated.client import LocalTrainingConfig
from repro.federated.executor import EXECUTOR_MODES
from repro.federated.simulation import FederatedConfig
from repro.ledger import (LedgerMismatchError, RunRecipe, benchmark_context,
                          config_from_dict, config_to_dict, git_sha,
                          scenario_from_dict, scenario_to_dict,
                          state_from_bytes, state_sha256, state_to_bytes)
from repro.ledger.codec import (DETERMINISM_KEYS, LEDGER_FIELDS,
                                RETIRED_EXECUTOR_MODES, RETIRED_KEYS,
                                RETIRED_TARGETS, drop_retired_keys)
from repro.ledger.recipes import federation
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import AvailabilitySpec, DropoutSpec, StragglerSpec


class TestStateCodec:
    def test_round_trip_preserves_arrays(self):
        state = {"fc1.weight": np.random.default_rng(0).normal(size=(4, 8)),
                 "fc1.bias": np.zeros(4), "scalar": np.asarray(3.5)}
        rebuilt = state_from_bytes(state_to_bytes(state))
        assert sorted(rebuilt) == sorted(state)
        for key in state:
            np.testing.assert_array_equal(rebuilt[key], state[key])
            assert rebuilt[key].dtype == np.asarray(state[key]).dtype

    def test_sha_detects_corruption(self):
        blob = state_to_bytes({"w": np.ones(4)})
        tampered = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        assert state_sha256(blob) != state_sha256(tampered)


class TestScenarioCodec:
    def test_none_round_trip(self):
        assert scenario_to_dict(None) is None
        assert scenario_from_dict(None) is None

    def test_full_spec_round_trip(self):
        spec = ScenarioSpec(
            availability=AvailabilitySpec(offline_probability=0.1,
                                          down_rounds={3: (0, 7)}),
            stragglers=StragglerSpec(probability=0.2, mean_delay=1.5),
            dropouts=DropoutSpec(probability=0.05),
            min_participation=0.5,
            seed=11,
        )
        assert scenario_from_dict(scenario_to_dict(spec)) == spec

    def test_round_trip_survives_json(self):
        # JSON turns int mapping keys into strings; the spec constructors
        # must normalise them back
        spec = ScenarioSpec(
            availability=AvailabilitySpec(down_rounds={2: (1, 3)}), seed=5)
        payload = json.loads(json.dumps(scenario_to_dict(spec)))
        assert scenario_from_dict(payload) == spec

    @pytest.mark.parametrize("drift", [{"period": 0, "shift": 1},
                                       {"shift": 1}])
    def test_drift_block_that_never_drifted_is_dropped(self, drift):
        spec = ScenarioSpec(dropouts=DropoutSpec(probability=0.25), seed=2)
        payload = dict(scenario_to_dict(spec), drift=drift)
        assert scenario_from_dict(payload) == spec
        assert payload["drift"] == drift  # the caller's payload is untouched

    @pytest.mark.parametrize("period", [1, 2])
    def test_drift_block_that_drifted_is_refused(self, period):
        # the same rule config_from_dict applies to a whole recorded config
        payload = dict(scenario_to_dict(ScenarioSpec()),
                       drift={"period": period, "shift": 1})
        with pytest.raises(LedgerMismatchError,
                           match=f"recorded scenario.drift.period={period}"):
            scenario_from_dict(payload)


#: a config payload exactly as an earlier release recorded it, retired
#: knobs and the label-drift block included
RECORDED = {
    "rounds": 4, "eval_every": 1,
    "local": {"batch_size": 8, "local_epochs": 1, "learning_rate": 0.0001,
              "optimizer": "adam", "max_batches_per_epoch": None},
    "executor_mode": "vectorized", "dataset_cache_size": 1024,
    "dtype": "float64", "eval_backend": "batched", "num_workers": None,
    "shard_policy": "contiguous", "scheduler_timeout": 120.0, "seed": 3,
    "scenario": {
        "availability": {"offline_probability": 0.0, "down_rounds": {}},
        "churn": {"joins": {}, "leaves": {}},
        "stragglers": {"probability": 0.0, "mean_delay": 0.0,
                       "deadline": None},
        "dropouts": {"probability": 0.25},
        "drift": {"period": 0, "shift": 1, "secure_reregistration": False,
                  "key_size": 128},
        "network": None, "min_participation": 0.0, "seed": 2,
    },
}


#: what config_to_dict wrote for a parallel run before that back-end was
#: retired: FederatedConfig(rounds=4, seed=3, executor_mode="parallel",
#: num_workers=2, scenario=...)
PARALLEL = {
    "rounds": 4, "eval_every": 1,
    "local": {"batch_size": 8, "local_epochs": 1, "learning_rate": 0.0001,
              "optimizer": "adam", "max_batches_per_epoch": None},
    "executor_mode": "parallel", "dataset_cache_size": 1024, "num_workers": 2,
    "scheduler_timeout": 120.0, "seed": 3, "scenario": RECORDED["scenario"],
}


class TestConfigCodec:
    def test_ledger_fields_are_stripped(self):
        config = FederatedConfig(rounds=3, seed=1, ledger_path="x.db",
                                 run_name="demo")
        payload = config_to_dict(config)
        for name in LEDGER_FIELDS:
            assert name not in payload

    def test_round_trip_with_scenario_and_local(self):
        config = FederatedConfig(
            rounds=4, eval_every=2, seed=9,
            local=LocalTrainingConfig(batch_size=4, local_epochs=2),
            scenario=ScenarioSpec(dropouts=DropoutSpec(probability=0.1),
                                  seed=3),
        )
        payload = json.loads(json.dumps(config_to_dict(config)))
        rebuilt = config_from_dict(payload)
        assert rebuilt == config

    def test_overrides_reattach_ledger_plumbing(self):
        recorded = config_to_dict(FederatedConfig(rounds=3, seed=1))
        rebuilt = config_from_dict(recorded, run_mode="verify",
                                   ledger_path="runs.db",
                                   replay_source_run_id="abc")
        assert rebuilt.run_mode == "verify"
        assert rebuilt.ledger_path == "runs.db"
        assert rebuilt.rounds == 3

    def test_determinism_keys_exist_on_config(self):
        payload = config_to_dict(FederatedConfig())
        for key in DETERMINISM_KEYS:
            assert key in payload

    def test_recorded_key_set_is_pinned(self):
        assert set(config_to_dict(FederatedConfig())) == {
            "rounds", "eval_every", "local", "executor_mode", "seed",
            "scenario",
        }

    def test_recorded_payload_is_byte_stable(self):
        # what config_to_dict wrote for these arguments before the nested
        # executor/ledger groups and the retired knobs were removed: old
        # ledgers must still load, and re-record the same config_json less
        # the retired keys
        config = FederatedConfig(
            rounds=4, seed=3, executor_mode="vectorized",
            scenario=ScenarioSpec(seed=2,
                                  dropouts=DropoutSpec(probability=0.25)))
        current = {key: value for key, value in RECORDED.items()
                   if key not in (*RETIRED_KEYS, *RETIRED_KNOBS)}
        current["scenario"] = {key: value for key, value
                               in RECORDED["scenario"].items()
                               if key != "drift"}
        assert json.dumps(config_to_dict(config)) == json.dumps(current)
        rebuilt = config_from_dict(json.loads(json.dumps(RECORDED)))
        assert rebuilt == config
        assert json.dumps(config_to_dict(rebuilt)) == json.dumps(current)

    @pytest.mark.parametrize("payload", [RECORDED, PARALLEL],
                             ids=["vectorized", "parallel"])
    @pytest.mark.parametrize("key,value", [
        ("dtype", "float32"), ("shard_policy", "interleaved"),
        ("eval_backend", "sequential"), ("dataset_cache_size", 7),
        ("dataset_cache_size", None)])
    def test_retired_key_with_another_value_is_refused(self, key, value,
                                                       payload):
        # a float32 run must never load (and so resume) silently in float64
        with pytest.raises(LedgerMismatchError, match=f"recorded {key}="):
            config_from_dict(dict(payload, **{key: value}))


#: the top-level retired keys (the dotted ones name blocks inside a config)
TOP_LEVEL_RETIRED = sorted(key for key in RETIRED_KEYS if "." not in key)

#: the knobs only a retired executor back-end read
RETIRED_KNOBS = tuple(knob for _, knobs in RETIRED_EXECUTOR_MODES.values()
                      for knob in knobs)


class TestRetiredKeys:
    @pytest.mark.parametrize("key", TOP_LEVEL_RETIRED)
    def test_surviving_value_is_dropped_on_load(self, key):
        current = config_to_dict(FederatedConfig(rounds=4, seed=3))
        legacy = dict(current, **{key: RETIRED_KEYS[key]})
        assert config_from_dict(legacy) == config_from_dict(current)

    def test_payload_is_left_untouched(self):
        payload = json.loads(json.dumps(RECORDED))
        kept = drop_retired_keys(payload)
        assert payload == RECORDED
        assert list(kept) == [key for key in RECORDED
                              if key not in (*RETIRED_KEYS, *RETIRED_KNOBS)]
        assert all(kept[key] == RECORDED[key] for key in kept
                   if key != "scenario")
        assert "drift" not in kept["scenario"]
        assert "drift" in payload["scenario"]

    @pytest.mark.parametrize("drift", [
        {"period": 0, "shift": 1},
        {"period": 0, "shift": 1, "secure_reregistration": False},
        {"period": 0, "shift": 1, "secure_reregistration": False,
         "key_size": 2048},
    ])
    def test_drift_block_that_never_drifted_is_dropped_on_load(self, drift):
        recorded = json.loads(json.dumps(RECORDED))
        recorded["scenario"]["drift"] = drift
        without = json.loads(json.dumps(RECORDED))
        del without["scenario"]["drift"]
        assert config_from_dict(recorded) == config_from_dict(without)
        assert config_from_dict(recorded).scenario == ScenarioSpec(
            dropouts=DropoutSpec(probability=0.25), seed=2)

    def test_drift_block_without_a_period_is_dropped_on_load(self):
        # like a missing top-level key, a missing period reads as the
        # surviving value
        recorded = json.loads(json.dumps(RECORDED))
        recorded["scenario"]["drift"] = {"shift": 3}
        assert "drift" not in drop_retired_keys(recorded)["scenario"]
        assert config_from_dict(recorded).scenario == ScenarioSpec(
            dropouts=DropoutSpec(probability=0.25), seed=2)

    @pytest.mark.parametrize("scenario", [
        pytest.param("absent", id="absent"), pytest.param(None, id="none")])
    def test_config_without_a_scenario_skips_the_drift_rule(self, scenario):
        recorded = json.loads(json.dumps(RECORDED))
        if scenario == "absent":
            del recorded["scenario"]
        else:
            recorded["scenario"] = scenario
        kept = drop_retired_keys(recorded)
        assert kept.get("scenario") is None
        assert "dtype" not in kept
        assert config_from_dict(recorded).scenario is None

    @pytest.mark.parametrize("period", [1, 2])
    def test_drift_block_that_drifted_is_refused(self, period):
        # a run that drifted cannot be replayed by a code base without drift
        recorded = json.loads(json.dumps(RECORDED))
        recorded["scenario"]["drift"] = {"period": period, "shift": 1}
        with pytest.raises(LedgerMismatchError,
                           match=f"recorded scenario.drift.period={period}"):
            config_from_dict(recorded)

    def test_no_retired_key_is_a_config_field(self):
        retired = set(TOP_LEVEL_RETIRED + list(RETIRED_KNOBS))
        fields = {f.name for f in dataclasses.fields(FederatedConfig)}
        assert not fields & retired
        assert not set(config_to_dict(FederatedConfig())) & retired
        assert "drift" not in scenario_to_dict(ScenarioSpec())


class TestRetiredExecutorModes:
    def test_parallel_run_loads_as_vectorized(self):
        payload = json.loads(json.dumps(PARALLEL))
        rebuilt = config_from_dict(payload)
        assert rebuilt == config_from_dict(RECORDED)
        assert rebuilt.executor_mode == "vectorized"
        assert payload == PARALLEL

    def test_every_successor_is_a_live_mode(self):
        for retired, (successor, _) in RETIRED_EXECUTOR_MODES.items():
            assert retired not in EXECUTOR_MODES
            assert successor in EXECUTOR_MODES

    def test_no_retired_knob_is_a_determinism_key(self):
        for _, knobs in RETIRED_EXECUTOR_MODES.values():
            assert not {"executor_mode", *knobs} & set(DETERMINISM_KEYS)

    @pytest.mark.parametrize("knobs", [
        {"num_workers": 2, "scheduler_timeout": None},
        {"num_workers": 64, "scheduler_timeout": -1.0},
        {"num_workers": "many"},
        {}], ids=["recorded", "invalid-values", "junk", "absent"])
    def test_knobs_are_dropped_whatever_they_hold(self, knobs):
        payload = {key: value for key, value in PARALLEL.items()
                   if key not in RETIRED_KNOBS}
        kept = drop_retired_keys(dict(payload, **knobs))
        assert not set(kept) & set(RETIRED_KNOBS)
        assert kept["executor_mode"] == "vectorized"

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_live_modes_load_unchanged(self, mode):
        assert drop_retired_keys(dict(PARALLEL, executor_mode=mode))[
            "executor_mode"] == mode
        assert config_from_dict(PARALLEL, executor_mode=mode
                                ).executor_mode == mode


RECIPE_TARGET = "repro.ledger.recipes:federation"


def assert_same_components(first, second):
    """Two recipe builds hold the same federation, data, model and selector."""
    np.testing.assert_array_equal(first["partition"].client_class_counts,
                                  second["partition"].client_class_counts)
    counts = first["partition"].client_class_counts[0]
    for key in ("x", "y"):
        np.testing.assert_array_equal(
            getattr(first["generator"].generate(
                counts, np.random.default_rng(0)), key),
            getattr(second["generator"].generate(
                counts, np.random.default_rng(0)), key))
        np.testing.assert_array_equal(getattr(first["test_set"], key),
                                      getattr(second["test_set"], key))
    first_state = first["model_factory"]().state_dict()
    second_state = second["model_factory"]().state_dict()
    assert sorted(first_state) == sorted(second_state)
    for name, value in first_state.items():
        np.testing.assert_array_equal(value, second_state[name])
    assert ([tuple(first["selector"].select(r)) for r in range(3)]
            == [tuple(second["selector"].select(r)) for r in range(3)])


class TestRunRecipe:
    def test_requires_module_colon_function(self):
        with pytest.raises(ValueError, match="package.module:function"):
            RunRecipe("no_colon_here")

    def test_resolve_unknown_attribute(self):
        with pytest.raises(ValueError, match="no attribute"):
            RunRecipe("repro.ledger.recipes:missing").resolve()

    def test_build_validates_components(self):
        recipe = RunRecipe("repro.ledger.codec:state_sha256", {"blob": b""})
        with pytest.raises(ValueError, match="must return a dict"):
            recipe.build()

    @pytest.mark.parametrize("dataset", ["mnist", "cifar", "femnist"])
    def test_federation_survives_the_ledger_round_trip(self, dataset):
        # the recipe_json column is JSON: every kwarg must come back as the
        # same value and rebuild the same components
        recipe = RunRecipe(RECIPE_TARGET, {
            "dataset": dataset, "rho": 2.0, "emd_avg": 1.0, "n_clients": 10,
            "participants": 3, "tries": 2, "selector": "dubhe", "seed": 4,
            "model_seed": 9})
        rebuilt = RunRecipe.from_dict(json.loads(json.dumps(recipe.to_dict())))
        assert rebuilt == recipe
        assert_same_components(recipe.build(), rebuilt.build())

    @pytest.mark.parametrize("selector", ["random", "greedy", "dubhe"])
    def test_federation_selector_variants(self, selector):
        recipe = RunRecipe(
            RECIPE_TARGET,
            {"n_clients": 8, "participants": 2, "seed": 0,
             "selector": selector})
        components = recipe.build()
        assert len(components["selector"].select(0)) == 2

    @pytest.mark.parametrize("kwargs, match", [
        ({"selector": "mystery"}, "selector must be"),
        ({"dataset": "svhn"}, "dataset must be"),
    ])
    def test_federation_rejects_unknown_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunRecipe(RECIPE_TARGET, kwargs).build()

    def test_federation_defaults_are_the_retired_quick_mlp_defaults(self):
        # a ledger recorded with quick_mlp stores only the kwargs it passed;
        # the rest must still mean what quick_mlp meant
        defaults = {name: p.default for name, p in
                    inspect.signature(federation).parameters.items()}
        assert defaults == {
            "dataset": "mnist", "rho": 10.0, "emd_avg": 1.5, "n_clients": 32,
            "samples_per_client": 16, "participants": 4, "tries": 1,
            "selector": "random", "hidden": 16, "test_per_class": 4,
            "seed": 0, "model_seed": None}

    def test_retired_quick_mlp_target_builds_the_federation(self):
        kwargs = {"n_clients": 8, "participants": 2, "selector": "dubhe",
                  "seed": 3}
        retired = RunRecipe("repro.ledger.recipes:quick_mlp", kwargs)
        assert retired.resolve() is federation
        assert RETIRED_TARGETS[retired.target] == RECIPE_TARGET
        assert_same_components(retired.build(), federation(**kwargs))

    def test_dict_round_trip(self):
        recipe = RunRecipe("m.o:d", {"x": 1})
        assert RunRecipe.from_dict(recipe.to_dict()) == recipe


class TestBenchmarkContext:
    def test_context_shape(self):
        context = benchmark_context()
        assert context["cpu_count"] >= 1
        assert context["python"]
        sha = context["git_sha"]
        assert sha is None or len(sha) == 40

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(tmp_path) is None
