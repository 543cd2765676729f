"""Tests of the three ledger run modes (repro/ledger/modes.py)."""

import dataclasses
import json
import sqlite3

import numpy as np
import pytest

from repro.federated.history import RoundRecord
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.ledger import (LedgerError, LedgerMismatchError,
                          LedgerVerificationError, RoundDiff, RunLedger,
                          RunRecipe, VerifyReport, diff_records)
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import DropoutSpec, StragglerSpec

RECIPE = RunRecipe("repro.ledger.recipes:federation",
                   {"n_clients": 12, "participants": 3, "seed": 0})


@pytest.fixture
def ledger_path(tmp_path):
    return str(tmp_path / "runs.db")


def build(ledger_path, run_mode="live", recipe=RECIPE, rounds=3, **over):
    kwargs = dict(rounds=rounds, seed=0, ledger_path=ledger_path,
                  run_mode=run_mode)
    kwargs.update(over)
    return FederatedSimulation(config=FederatedConfig(**kwargs),
                               recipe=recipe, **recipe.build())


def record_run(ledger_path, rounds=3, stop_after=None, **over):
    with build(ledger_path, rounds=rounds, **over) as sim:
        history = sim.run(stop_after)
        return sim.ledger_session.run_id, history


def rerecord_config(ledger_path, run_id, **keys):
    """Rewrite *run_id*'s recorded config as an older release would have
    stored it, with *keys* (retired knobs) added."""
    with RunLedger(ledger_path, create=False) as ledger:
        payload = dict(ledger.run(run_id).config, **keys)
    conn = sqlite3.connect(ledger_path)
    conn.execute("UPDATE runs SET config_json = ? WHERE run_id = ?",
                 (json.dumps(payload), run_id))
    conn.commit()
    conn.close()


class TestConfigValidation:
    def test_resume_requires_ledger_path(self):
        with pytest.raises(ValueError, match="requires ledger_path"):
            FederatedConfig(run_mode="resume")

    def test_replay_source_invalid_with_live(self):
        with pytest.raises(ValueError, match="invalid with run_mode='live'"):
            FederatedConfig(ledger_path="x.db", replay_source_run_id="abc")

    def test_unknown_run_mode(self):
        with pytest.raises(ValueError, match="run mode"):
            FederatedConfig(run_mode="replay", ledger_path="x.db")


class TestLiveMode:
    def test_every_round_committed(self, ledger_path):
        run_id, history = record_run(ledger_path)
        with RunLedger(ledger_path, create=False) as ledger:
            info = ledger.run(run_id)
            assert info.status == "completed"
            assert info.rounds_committed == len(history) == 3
            rounds = ledger.rounds(run_id)
        for payload, record in zip(rounds, history.records):
            rebuilt = RoundRecord.from_dict(payload)
            assert rebuilt.selected_clients == record.selected_clients
            assert rebuilt.test_accuracy == record.test_accuracy

    def test_a_stopped_run_stays_running_until_its_plan_is_committed(
            self, ledger_path):
        def status(run_id):
            with RunLedger(ledger_path, create=False) as ledger:
                info = ledger.run(run_id)
            return (info.status, info.rounds_committed,
                    info.finished_at is None, info.report is None)

        run_id, _ = record_run(ledger_path, rounds=5, stop_after=2)
        assert status(run_id) == ("running", 2, True, True)
        with build(ledger_path, "resume", rounds=5,
                   replay_source_run_id=run_id) as sim:
            sim.run(4)  # stopped again, one round short of the plan
        assert status(run_id) == ("running", 4, True, True)
        with build(ledger_path, "resume", rounds=5,
                   replay_source_run_id=run_id) as sim:
            sim.run()
        assert status(run_id) == ("completed", 5, False, False)

    def test_run_row_carries_context(self, ledger_path):
        run_id, _ = record_run(ledger_path, run_name="ctx")
        with RunLedger(ledger_path, create=False) as ledger:
            info = ledger.run(run_id)
        assert info.name == "ctx"
        assert info.config["rounds"] == 3
        assert info.seeds["config_seed"] == 0
        assert info.recipe == RECIPE.to_dict()
        assert info.bench["cpu_count"] >= 1
        assert info.report["rounds"] == 3

    def test_checkpoint_matches_server_state(self, ledger_path):
        with build(ledger_path) as sim:
            sim.run()
            run_id = sim.ledger_session.run_id
            final_state = sim.server.global_state()
        with RunLedger(ledger_path, create=False) as ledger:
            index, state = ledger.checkpoint(run_id)
        assert index == 2
        for key in final_state:
            np.testing.assert_array_equal(state[key], final_state[key])

    def test_without_ledger_path_no_session(self):
        with FederatedSimulation(config=FederatedConfig(rounds=1, seed=0),
                                 **RECIPE.build()) as sim:
            assert sim.ledger_session is None
            sim.run()


class TestResumeMode:
    def test_resume_reproduces_uninterrupted_run(self, ledger_path):
        _, uninterrupted = record_run(ledger_path, rounds=5)
        partial_id, _ = record_run(ledger_path, rounds=5, stop_after=2)
        with build(ledger_path, "resume", rounds=5,
                   replay_source_run_id=partial_id) as sim:
            resumed = sim.run()
            final_state = sim.server.global_state()
        np.testing.assert_array_equal(resumed.accuracies(),
                                      uninterrupted.accuracies())
        assert len(resumed) == 5
        with RunLedger(ledger_path, create=False) as ledger:
            assert ledger.run(partial_id).rounds_committed == 5
            assert ledger.run(partial_id).status == "completed"
        # and the resumed run's checkpoint equals its in-memory final state
        with RunLedger(ledger_path, create=False) as ledger:
            _, state = ledger.checkpoint(partial_id)
        for key in final_state:
            np.testing.assert_array_equal(state[key], final_state[key])

    def test_resume_refuses_config_drift(self, ledger_path):
        partial_id, _ = record_run(ledger_path, stop_after=2)
        with pytest.raises(LedgerMismatchError, match="seed"):
            build(ledger_path, "resume", replay_source_run_id=partial_id,
                  seed=1)

    @pytest.mark.parametrize("key,value", [
        ("dtype", "float32"), ("shard_policy", "interleaved"),
        ("eval_backend", "sequential")])
    def test_resume_refuses_a_retired_knob_value(self, ledger_path, key,
                                                 value):
        partial_id, _ = record_run(ledger_path, stop_after=2)
        rerecord_config(ledger_path, partial_id, **{key: value})
        with pytest.raises(LedgerMismatchError, match=key):
            build(ledger_path, "resume", replay_source_run_id=partial_id)

    @pytest.mark.parametrize("key,value", [
        ("dtype", "float64"), ("shard_policy", "contiguous"),
        ("eval_backend", "batched")])
    def test_resume_accepts_a_retired_knob_at_its_surviving_value(
            self, ledger_path, key, value):
        _, uninterrupted = record_run(str(ledger_path) + ".ref")
        partial_id, _ = record_run(ledger_path, stop_after=2)
        rerecord_config(ledger_path, partial_id, **{key: value})
        with build(ledger_path, "resume",
                   replay_source_run_id=partial_id) as sim:
            resumed = sim.run()
        np.testing.assert_array_equal(resumed.accuracies(),
                                      uninterrupted.accuracies())

    def test_resume_refuses_selector_drift(self, ledger_path):
        partial_id, _ = record_run(ledger_path, stop_after=2)
        other = RunRecipe("repro.ledger.recipes:federation",
                          dict(RECIPE.kwargs, selector="greedy"))
        with pytest.raises(LedgerMismatchError, match="selector"):
            build(ledger_path, "resume", recipe=other,
                  replay_source_run_id=partial_id)

    def test_resume_completed_run_is_a_no_op(self, ledger_path):
        run_id, history = record_run(ledger_path)
        with build(ledger_path, "resume",
                   replay_source_run_id=run_id) as sim:
            resumed = sim.run()
        np.testing.assert_array_equal(resumed.accuracies(),
                                      history.accuracies())
        with RunLedger(ledger_path, create=False) as ledger:
            assert ledger.run(run_id).rounds_committed == 3

    def test_resume_defaults_to_latest_run(self, ledger_path):
        record_run(ledger_path)  # an older, completed run
        partial_id, _ = record_run(ledger_path, stop_after=1)
        with build(ledger_path, "resume") as sim:
            sim.run()
            assert sim.ledger_session.run_id == partial_id


class TestVerifyMode:
    def test_verify_ok(self, ledger_path):
        run_id, _ = record_run(ledger_path)
        with build(ledger_path, "verify",
                   replay_source_run_id=run_id) as sim:
            sim.run()
            report = sim.ledger_session.report
        assert report.ok()
        assert report.rounds_checked == 3
        assert report.run_id == run_id

    def test_verify_across_backends(self, ledger_path):
        run_id, _ = record_run(ledger_path)
        for executor_mode in ("sequential", "vectorized"):
            with build(ledger_path, "verify", replay_source_run_id=run_id,
                       executor_mode=executor_mode) as sim:
                sim.run()
                assert sim.ledger_session.report.ok(), executor_mode

    def test_verify_detects_tampered_record(self, ledger_path):
        import json
        import sqlite3

        run_id, _ = record_run(ledger_path)
        conn = sqlite3.connect(ledger_path)
        row = conn.execute(
            "SELECT record_json FROM rounds WHERE run_id = ? AND "
            "round_index = 1", (run_id,)).fetchone()
        payload = json.loads(row[0])
        payload["test_accuracy"] = 0.999
        conn.execute(
            "UPDATE rounds SET record_json = ? WHERE run_id = ? AND "
            "round_index = 1", (json.dumps(payload), run_id))
        conn.commit()
        conn.close()
        with build(ledger_path, "verify",
                   replay_source_run_id=run_id) as sim:
            with pytest.raises(LedgerVerificationError) as excinfo:
                sim.run()
        report = excinfo.value.report
        assert not report.ok()
        assert [m.field for m in report.mismatches] == ["test_accuracy"]
        assert report.mismatches[0].round_index == 1
        assert "test_accuracy" in report.format()

    def test_verify_empty_run_refused(self, ledger_path):
        from repro.ledger import config_to_dict

        recorded = config_to_dict(FederatedConfig(rounds=3, seed=0))
        with RunLedger(ledger_path) as ledger:
            ledger.begin_run("empty", recorded, {}, 3)
        with pytest.raises(LedgerError, match="no committed rounds"):
            build(ledger_path, "verify")

    def test_verify_accepts_a_legacy_config(self, ledger_path):
        run_id, _ = record_run(ledger_path)
        rerecord_config(ledger_path, run_id, dtype="float64",
                        shard_policy="contiguous", eval_backend="batched",
                        executor_mode="parallel", num_workers=2,
                        scheduler_timeout=120.0)
        with build(ledger_path, "verify",
                   replay_source_run_id=run_id) as sim:
            sim.run()
            assert sim.ledger_session.report.ok()

    def test_verify_accepts_rows_with_the_retired_train_loss(self,
                                                             ledger_path):
        # rows recorded before RoundRecord dropped its never-set train_loss
        # carry "train_loss": null; they still load and still verify
        run_id, history = record_run(ledger_path)
        conn = sqlite3.connect(ledger_path)
        rows = conn.execute("SELECT round_index, record_json FROM rounds "
                            "WHERE run_id = ?", (run_id,)).fetchall()
        for round_index, record_json in rows:
            conn.execute(
                "UPDATE rounds SET record_json = ? WHERE run_id = ? AND "
                "round_index = ?",
                (json.dumps(dict(json.loads(record_json), train_loss=None)),
                 run_id, round_index))
        conn.commit()
        conn.close()
        with RunLedger(ledger_path, create=False) as ledger:
            rows = ledger.rounds(run_id)
        assert all(row["train_loss"] is None for row in rows)
        loaded = [RoundRecord.from_dict(row) for row in rows]
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in history.records]
        with build(ledger_path, "verify",
                   replay_source_run_id=run_id) as sim:
            sim.run()
            assert sim.ledger_session.report.ok()

    def test_verify_refuses_a_retired_knob_value(self, ledger_path):
        run_id, _ = record_run(ledger_path)
        rerecord_config(ledger_path, run_id, dtype="float32")
        with pytest.raises(LedgerMismatchError, match="dtype"):
            build(ledger_path, "verify", replay_source_run_id=run_id)

    def test_verify_never_writes(self, ledger_path):
        run_id, _ = record_run(ledger_path)
        with RunLedger(ledger_path, create=False) as ledger:
            before = ledger.rounds(run_id)
        with build(ledger_path, "verify",
                   replay_source_run_id=run_id) as sim:
            sim.run()
        with RunLedger(ledger_path, create=False) as ledger:
            assert ledger.rounds(run_id) == before


class TestScenarioRuns:
    SPEC = ScenarioSpec(dropouts=DropoutSpec(probability=0.25),
                        stragglers=StragglerSpec(probability=0.3,
                                                 mean_delay=1.0),
                        seed=7)

    def test_scenario_resume_and_verify(self, ledger_path):
        _, uninterrupted = record_run(ledger_path, rounds=5,
                                      scenario=self.SPEC)
        partial_id, _ = record_run(ledger_path, rounds=5, stop_after=3,
                                   scenario=self.SPEC)
        with build(ledger_path, "resume", rounds=5, scenario=self.SPEC,
                   replay_source_run_id=partial_id) as sim:
            resumed = sim.run()
        np.testing.assert_array_equal(resumed.accuracies(),
                                      uninterrupted.accuracies())
        assert ([r.failures for r in resumed.records]
                == [r.failures for r in uninterrupted.records])
        with build(ledger_path, "verify", rounds=5, scenario=self.SPEC,
                   replay_source_run_id=partial_id) as sim:
            sim.run()
            assert sim.ledger_session.report.ok()

    def test_scenario_spec_recorded(self, ledger_path):
        run_id, _ = record_run(ledger_path, scenario=self.SPEC)
        with RunLedger(ledger_path, create=False) as ledger:
            info = ledger.run(run_id)
        assert info.scenario["seed"] == 7
        assert info.config["scenario"]["dropouts"]["probability"] == 0.25

    def test_scenario_session_records_a_report(self, ledger_path):
        from repro.api import Session

        session = (Session(FederatedConfig(rounds=3, seed=0))
                   .with_recipe(RECIPE)
                   .with_scenario(self.SPEC)
                   .with_ledger(ledger_path, run_name="scenario"))
        with session:
            run_id = session.run().run_id
        with RunLedger(ledger_path, create=False) as ledger:
            info = ledger.run(run_id)
        assert info.name == "scenario"
        assert "final_accuracy" in info.report


class TestLedgersRecordedWithDrift:
    """Ledgers recorded while scenarios could drift labels carry a drift
    block in their scenario and a ``drift_applied`` flag in every round."""

    SPEC = TestScenarioRuns.SPEC

    @staticmethod
    def rerecord_with_drift(ledger_path, run_id, drift):
        """Rewrite *run_id* as such a release would have stored it."""
        with RunLedger(ledger_path, create=False) as ledger:
            scenario = dict(ledger.run(run_id).config["scenario"], drift=drift)
        rerecord_config(ledger_path, run_id, scenario=scenario)
        conn = sqlite3.connect(ledger_path)
        conn.execute("UPDATE runs SET scenario_json = ? WHERE run_id = ?",
                     (json.dumps(scenario), run_id))
        rows = conn.execute(
            "SELECT round_index, record_json FROM rounds WHERE run_id = ?",
            (run_id,)).fetchall()
        for round_index, record_json in rows:
            payload = dict(json.loads(record_json), drift_applied=False)
            conn.execute(
                "UPDATE rounds SET record_json = ? WHERE run_id = ? AND "
                "round_index = ?", (json.dumps(payload), run_id, round_index))
        conn.commit()
        conn.close()

    @pytest.mark.parametrize("drift", [
        {"period": 0, "shift": 1},
        {"period": 0, "shift": 1, "secure_reregistration": False},
        {"period": 0, "shift": 1, "secure_reregistration": False,
         "key_size": 2048},
    ])
    def test_resume_accepts_a_drift_block_that_never_drifted(self, ledger_path,
                                                             drift):
        _, uninterrupted = record_run(str(ledger_path) + ".ref",
                                      scenario=self.SPEC)
        partial_id, _ = record_run(ledger_path, stop_after=2,
                                   scenario=self.SPEC)
        self.rerecord_with_drift(ledger_path, partial_id, drift)
        with build(ledger_path, "resume", scenario=self.SPEC,
                   replay_source_run_id=partial_id) as sim:
            resumed = sim.run()
        np.testing.assert_array_equal(resumed.accuracies(),
                                      uninterrupted.accuracies())
        assert ([r.failures for r in resumed.records]
                == [r.failures for r in uninterrupted.records])

    @pytest.mark.parametrize("executor_mode", ["sequential", "vectorized"])
    def test_verify_accepts_a_ledger_recorded_with_drift(self, ledger_path,
                                                         executor_mode):
        run_id, _ = record_run(ledger_path, scenario=self.SPEC)
        self.rerecord_with_drift(ledger_path, run_id,
                                 {"period": 0, "shift": 1})
        with build(ledger_path, "verify", scenario=self.SPEC,
                   replay_source_run_id=run_id,
                   executor_mode=executor_mode) as sim:
            sim.run()
            report = sim.ledger_session.report
        assert report.ok(), report.format()
        assert report.rounds_checked == 3

    @pytest.mark.parametrize("run_mode", ["resume", "verify"])
    def test_a_drift_block_that_drifted_is_refused(self, ledger_path,
                                                   run_mode):
        run_id, _ = record_run(ledger_path, stop_after=2, scenario=self.SPEC)
        self.rerecord_with_drift(ledger_path, run_id,
                                 {"period": 2, "shift": 1})
        with pytest.raises(LedgerMismatchError,
                           match="recorded scenario.drift.period=2"):
            build(ledger_path, run_mode, scenario=self.SPEC,
                  replay_source_run_id=run_id)


class TestDiffRecords:
    def make(self, **over):
        base = dict(round_index=0, selected_clients=(1, 2),
                    population_distribution=np.array([0.5, 0.5]),
                    population_bias=0.5, test_accuracy=0.8)
        base.update(over)
        return RoundRecord(**base)

    def test_identical_records_no_diff(self):
        assert diff_records(self.make(), self.make()) == []

    def test_fallback_reason_not_compared(self):
        assert diff_records(self.make(),
                            self.make(fallback_reason="degraded")) == []

    def test_tolerance_respected(self):
        within = self.make(test_accuracy=0.8 + 1e-12)
        beyond = self.make(test_accuracy=0.8 + 1e-6)
        assert diff_records(self.make(), within) == []
        diffs = diff_records(self.make(), beyond)
        assert [d.field for d in diffs] == ["test_accuracy"]

    def test_nan_equals_nan(self):
        left = self.make(actual_population_bias=float("nan"))
        right = self.make(actual_population_bias=float("nan"))
        assert diff_records(left, right) == []
        asymmetric = diff_records(left, self.make(actual_population_bias=0.1))
        assert [d.field for d in asymmetric] == ["actual_population_bias"]

    def test_selection_mismatch_reported(self):
        diffs = diff_records(self.make(), self.make(selected_clients=(1, 3)))
        assert [d.field for d in diffs] == ["selected_clients"]
        assert "recorded (1, 2)" in diffs[0].format()

    def test_distribution_mismatch_reported(self):
        other = self.make(population_distribution=np.array([0.4, 0.6]))
        diffs = diff_records(self.make(), other)
        assert [d.field for d in diffs] == ["population_distribution"]

    def test_report_to_dict(self):
        diff = RoundDiff(1, "test_accuracy", 0.5, 0.6)
        report = VerifyReport("run", 3, (diff,), 1e-10)
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["mismatches"][0]["round_index"] == 1
        assert "FAILED" in report.format()
