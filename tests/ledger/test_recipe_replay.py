"""Every value of the stock recipe records a ledger that replays, and so do
ledgers recorded under its retired name (repro/ledger/recipes.py)."""

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro import FederatedConfig, Session
from repro.ledger import RunLedger
from repro.ledger.cli import main

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

TARGET = "repro.ledger.recipes:federation"

#: the smallest run of each dataset: 2 rounds of 6 clients, 2 a round
TINY = dict(n_clients=6, samples_per_client=8, participants=2, tries=2,
            hidden=4, test_per_class=1, seed=1)


def record(path, rounds=2, stop_after=None, **kwargs):
    session = Session(FederatedConfig(rounds=rounds, seed=1)).with_recipe(
        TARGET, **dict(TINY, **kwargs)).with_ledger(path)
    with session:
        session.run(stop_after)
        return session.simulation.ledger_session.run_id


def verify(path, run_id, **kwargs):
    session = Session(FederatedConfig(rounds=2, seed=1)).with_recipe(
        TARGET, **dict(TINY, **kwargs)).with_ledger(path, "verify", run_id)
    with session:
        session.run()
        return session.simulation.ledger_session.report


@pytest.mark.parametrize("selector", ["random", "greedy", "dubhe"])
@pytest.mark.parametrize("dataset", ["mnist", "cifar", "femnist"])
def test_every_recipe_value_records_a_run_that_verifies(tmp_path, dataset,
                                                        selector):
    path = str(tmp_path / "runs.db")
    run_id = record(path, dataset=dataset, selector=selector)
    report = verify(path, run_id, dataset=dataset, selector=selector)
    assert report.ok(), report.format()
    assert report.rounds_checked == 2


def test_a_recipe_run_verifies_in_a_cold_process(tmp_path):
    path = str(tmp_path / "runs.db")
    run_id = record(path, dataset="femnist", selector="dubhe")
    result = subprocess.run(
        [sys.executable, "-m", "repro.ledger", "verify", path, run_id],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "OK (2 rounds" in result.stdout


class TestLedgersRecordedAsQuickMlp:
    """Older ledgers name the stock recipe ``quick_mlp``."""

    @staticmethod
    def recorded_as_quick_mlp(path, **kwargs):
        """A run of 3 rounds, 2 recorded, stored as such a release did."""
        run_id = record(path, rounds=3, stop_after=2, **kwargs)
        with RunLedger(path, create=False) as ledger:
            recipe = dict(ledger.run(run_id).recipe,
                          target="repro.ledger.recipes:quick_mlp")
        conn = sqlite3.connect(path)
        conn.execute("UPDATE runs SET recipe_json = ? WHERE run_id = ?",
                     (json.dumps(recipe), run_id))
        conn.commit()
        conn.close()
        return run_id

    def test_resume_completes_the_run_as_if_uninterrupted(self, tmp_path,
                                                          capsys):
        path = str(tmp_path / "runs.db")
        run_id = self.recorded_as_quick_mlp(path, selector="dubhe")
        assert main(["resume", path, run_id]) == 0
        assert "ran 1 round(s), 3 total" in capsys.readouterr().out
        uninterrupted = record(str(tmp_path / "ref.db"), rounds=3,
                               selector="dubhe")
        with RunLedger(path, create=False) as resumed, \
                RunLedger(str(tmp_path / "ref.db"), create=False) as ref:
            assert resumed.rounds(run_id) == ref.rounds(uninterrupted)

    @pytest.mark.parametrize("executor_mode", ["sequential", "vectorized"])
    def test_verify_on_every_backend(self, tmp_path, capsys, executor_mode):
        path = str(tmp_path / "runs.db")
        run_id = self.recorded_as_quick_mlp(path, selector="greedy")
        assert main(["verify", path, run_id,
                     "--executor-mode", executor_mode]) == 0
        assert "OK (2 rounds" in capsys.readouterr().out
