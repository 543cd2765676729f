"""Tests of the ``python -m repro.ledger`` CLI (repro/ledger/cli.py)."""

import json
import sqlite3

import pytest

from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.ledger import RunLedger, RunRecipe
from repro.ledger.cli import main

RECIPE = RunRecipe("repro.ledger.recipes:federation",
                   {"n_clients": 12, "participants": 3, "seed": 0})


@pytest.fixture
def recorded(tmp_path):
    """A ledger holding one partially recorded run (2 of 4 rounds)."""
    path = str(tmp_path / "runs.db")
    config = FederatedConfig(rounds=4, seed=0, ledger_path=path,
                             run_name="cli-test")
    with FederatedSimulation(config=config, recipe=RECIPE,
                             **RECIPE.build()) as sim:
        sim.run(2)
        run_id = sim.ledger_session.run_id
    return path, run_id


class TestList:
    def test_lists_runs(self, recorded, capsys):
        path, run_id = recorded
        assert main(["list", path]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "cli-test" in out
        assert "2/4" in out.replace(" ", "")

    def test_empty_ledger(self, tmp_path, capsys):
        path = str(tmp_path / "empty.db")
        RunLedger(path).close()
        assert main(["list", path]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        assert main(["list", str(tmp_path / "absent.db")]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_non_ledger_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "foreign.txt"
        path.write_text("not a ledger")
        assert main(["list", str(path)]) == 2
        assert "refusing" in capsys.readouterr().err
        assert path.read_text() == "not a ledger"


class TestShow:
    def test_shows_rounds_and_config(self, recorded, capsys):
        path, run_id = recorded
        assert main(["show", path, run_id]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "recipe" in out
        assert '"rounds": 4' in out

    def test_unknown_run(self, recorded, capsys):
        path, _ = recorded
        assert main(["show", path, "nope"]) == 2
        assert "no run" in capsys.readouterr().err


class TestResumeAndVerify:
    def test_resume_then_verify_round_trip(self, recorded, capsys):
        path, run_id = recorded
        assert main(["resume", path, run_id]) == 0
        out = capsys.readouterr().out
        assert "ran 2 round(s), 4 total" in out

        assert main(["verify", path, run_id]) == 0
        assert "OK (4 rounds" in capsys.readouterr().out

    def test_verify_other_backend_and_json(self, recorded, capsys):
        path, run_id = recorded
        main(["resume", path, run_id])
        capsys.readouterr()
        assert main(["verify", path, run_id, "--executor-mode",
                     "vectorized", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rounds_checked"] == 4

    def test_verify_failure_exit_code(self, recorded, capsys):
        path, run_id = recorded
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT record_json FROM rounds WHERE round_index = 0"
        ).fetchone()
        tampered = json.loads(row[0])
        tampered["population_bias"] = 123.0
        conn.execute("UPDATE rounds SET record_json = ?",
                     (json.dumps(tampered),))
        conn.commit()
        conn.close()
        assert main(["verify", path, run_id]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_recipe_override(self, recorded, capsys):
        path, run_id = recorded
        assert main(["resume", path, run_id, "--recipe",
                     RECIPE.target, "--recipe-kwargs",
                     json.dumps(RECIPE.kwargs)]) == 0

    def test_run_without_recipe_needs_override(self, tmp_path, capsys):
        from repro.ledger import config_to_dict

        path = str(tmp_path / "bare.db")
        with RunLedger(path) as ledger:
            ledger.begin_run("bare",
                             config_to_dict(FederatedConfig(rounds=1, seed=0)),
                             {}, 1)
        assert main(["verify", path]) == 2
        assert "--recipe" in capsys.readouterr().err


#: the config_json an earlier release recorded for the ``recorded`` fixture's
#: FederatedConfig(rounds=4, seed=0), with the knobs since retired
LEGACY_CONFIG = {
    "rounds": 4, "eval_every": 1,
    "local": {"batch_size": 8, "local_epochs": 1, "learning_rate": 0.0001,
              "optimizer": "adam", "max_batches_per_epoch": None},
    "executor_mode": "sequential", "dataset_cache_size": 1024,
    "dtype": "float64", "eval_backend": "batched", "num_workers": None,
    "shard_policy": "contiguous", "scheduler_timeout": 120.0, "seed": 0,
    "scenario": None,
}


def record_config(path, run_id, payload):
    conn = sqlite3.connect(path)
    conn.execute("UPDATE runs SET config_json = ? WHERE run_id = ?",
                 (json.dumps(payload), run_id))
    conn.commit()
    conn.close()


class TestLegacyConfig:
    def test_legacy_config_resumes_and_verifies(self, recorded, capsys):
        path, run_id = recorded
        record_config(path, run_id, LEGACY_CONFIG)
        assert main(["resume", path, run_id]) == 0
        assert "ran 2 round(s), 4 total" in capsys.readouterr().out
        assert main(["verify", path, run_id]) == 0
        assert "OK (4 rounds" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [("dtype", "float32"),
                                           ("shard_policy", "interleaved"),
                                           ("eval_backend", "sequential")])
    @pytest.mark.parametrize("command", ["resume", "verify"])
    def test_another_retired_value_is_refused(self, recorded, capsys,
                                              command, key, value):
        path, run_id = recorded
        record_config(path, run_id, dict(LEGACY_CONFIG, **{key: value}))
        assert main([command, path, run_id]) == 2
        assert f"recorded {key}={value!r}" in capsys.readouterr().err
        with RunLedger(path, create=False) as ledger:
            assert ledger.run(run_id).rounds_committed == 2
