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

    def test_a_stopped_run_is_listed_as_running(self, recorded, capsys):
        # 2 of 4 rounds: the run stays resumable, not "completed"
        path, run_id = recorded
        assert main(["list", path]) == 0
        (line,) = [row for row in capsys.readouterr().out.splitlines()
                   if row.startswith(run_id)]
        assert line.split()[2] == "running"

    def test_a_resumed_run_is_listed_as_completed(self, recorded, capsys):
        path, run_id = recorded
        assert main(["resume", path, run_id]) == 0
        capsys.readouterr()
        assert main(["list", path]) == 0
        (line,) = [row for row in capsys.readouterr().out.splitlines()
                   if row.startswith(run_id)]
        assert line.split()[2:4] == ["completed", "4/4"]

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

    def test_a_stopped_run_has_no_finish_time(self, recorded, capsys):
        path, run_id = recorded
        assert main(["show", path, run_id]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"run {run_id} (cli-test) — running, "
                            "2/4 rounds committed")
        assert lines[2] == "  finished -"

    def test_unknown_run(self, recorded, capsys):
        path, _ = recorded
        assert main(["show", path, "nope"]) == 2
        assert "no run" in capsys.readouterr().err


class TestOlderRows:
    def test_a_row_with_embedded_bench_payloads_still_reads(self, tmp_path,
                                                              capsys):
        # runs recorded before the context stopped embedding the committed
        # BENCH_*.json payloads carry them under a "bench" key
        path = str(tmp_path / "runs.db")
        with RunLedger(path) as ledger:
            run_id = ledger.begin_run("embedded", {}, {}, 1, bench={
                "git_sha": "c" * 40, "cpu_count": 2, "python": "3.11.0",
                "numpy": "1.26.0",
                "bench": {"BENCH_sim": {"benchmark": "sim", "results": []}}})
        with RunLedger(path, create=False) as ledger:
            (info,) = ledger.runs()
        assert info.bench["bench"]["BENCH_sim"]["benchmark"] == "sim"
        assert main(["list", path]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "c" * 9 in out
        assert main(["show", path, run_id]) == 0
        out = capsys.readouterr().out
        assert "git " + "c" * 40 in out
        assert "cpus 2" in out and "numpy 1.26.0" in out


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

    def test_resume_takes_no_round_count(self, recorded, capsys):
        # a run's length is its recorded config.rounds; resuming past it
        # left "completed 6/4" rows (test_a_resumed_run_is_listed_as_completed
        # holds the plain resume to 4/4)
        path, run_id = recorded
        with pytest.raises(SystemExit) as exit_info:
            main(["resume", path, run_id, "--rounds", "6"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --rounds 6" in capsys.readouterr().err
        with RunLedger(path, create=False) as ledger:
            assert ledger.run(run_id).rounds_committed == 2

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


#: what config_to_dict wrote for the ``recorded`` fixture's
#: FederatedConfig(rounds=4, seed=0) before dataset_cache_size was retired
CACHE_SIZE_CONFIG = {
    "rounds": 4, "eval_every": 1,
    "local": {"batch_size": 8, "local_epochs": 1, "learning_rate": 0.0001,
              "optimizer": "adam", "max_batches_per_epoch": None},
    "executor_mode": "vectorized", "dataset_cache_size": 1024, "seed": 0,
    "scenario": None,
}


#: what config_to_dict wrote for FederatedConfig(rounds=4, seed=0,
#: executor_mode="parallel", num_workers=2) before that back-end was retired
PARALLEL_CONFIG = {
    "rounds": 4, "eval_every": 1,
    "local": {"batch_size": 8, "local_epochs": 1, "learning_rate": 0.0001,
              "optimizer": "adam", "max_batches_per_epoch": None},
    "executor_mode": "parallel", "dataset_cache_size": 1024,
    "num_workers": 2, "scheduler_timeout": 120.0, "seed": 0, "scenario": None,
}


class TestLegacyConfig:
    @pytest.mark.parametrize("payload", [LEGACY_CONFIG, PARALLEL_CONFIG],
                             ids=["retired-knobs", "parallel"])
    def test_legacy_config_resumes_and_verifies(self, recorded, capsys,
                                                payload):
        path, run_id = recorded
        record_config(path, run_id, payload)
        assert main(["resume", path, run_id]) == 0
        assert "ran 2 round(s), 4 total" in capsys.readouterr().out
        assert main(["verify", path, run_id]) == 0
        assert "OK (4 rounds" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["sequential", "vectorized"])
    def test_a_recorded_cache_size_resumes_and_verifies(self, recorded,
                                                        capsys, backend):
        path, run_id = recorded
        record_config(path, run_id, CACHE_SIZE_CONFIG)
        assert main(["resume", path, run_id, "--executor-mode", backend]) == 0
        assert "ran 2 round(s), 4 total" in capsys.readouterr().out
        assert main(["verify", path, run_id, "--executor-mode", backend]) == 0
        assert "OK (4 rounds" in capsys.readouterr().out
        with RunLedger(path, create=False) as ledger:
            assert ledger.run(run_id).status == "completed"

    def test_executor_mode_offers_only_live_modes(self, recorded, capsys):
        path, run_id = recorded
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", path, run_id, "--executor-mode", "parallel"])
        assert exit_info.value.code == 2
        assert "'sequential', 'vectorized'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("dtype", "float32"),
                                           ("shard_policy", "interleaved"),
                                           ("eval_backend", "sequential"),
                                           ("dataset_cache_size", 7),
                                           ("dataset_cache_size", None)])
    @pytest.mark.parametrize("command", ["resume", "verify"])
    def test_another_retired_value_is_refused(self, recorded, capsys,
                                              command, key, value):
        path, run_id = recorded
        record_config(path, run_id, dict(LEGACY_CONFIG, **{key: value}))
        assert main([command, path, run_id]) == 2
        assert f"recorded {key}={value!r}" in capsys.readouterr().err
        with RunLedger(path, create=False) as ledger:
            assert ledger.run(run_id).rounds_committed == 2
