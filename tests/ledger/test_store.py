"""Tests of the SQLite run-ledger store (repro/ledger/store.py)."""

import os
import sqlite3

import numpy as np
import pytest

from repro.ledger import (SCHEMA_VERSION, LedgerCorruptError, LedgerError,
                          LedgerSchemaError, RunLedger, state_sha256,
                          state_to_bytes)


@pytest.fixture
def ledger_path(tmp_path):
    return str(tmp_path / "runs.db")


def make_record(round_index, accuracy=0.5):
    return {"round_index": round_index, "selected_clients": [1, 2],
            "test_accuracy": accuracy}


def make_state(value=1.0):
    return {"layer.weight": np.full((2, 3), value),
            "layer.bias": np.zeros(3)}


class TestLifecycle:
    def test_begin_commit_finish(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {"rounds": 2}, {"seed": 0},
                                      rounds_planned=2)
            info = ledger.run(run_id)
            assert info.status == "running"
            assert info.rounds_committed == 0

            ledger.commit_round(run_id, make_record(0), make_state(), 0.5)
            ledger.commit_round(run_id, make_record(1), make_state(2.0), 0.4)
            ledger.finish_run(run_id, report={"final_accuracy": 0.5})

            info = ledger.run(run_id)
            assert info.status == "completed"
            assert info.rounds_committed == 2
            assert info.report == {"final_accuracy": 0.5}

    def test_round_payloads_survive(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {}, {}, 1)
            ledger.commit_round(run_id, make_record(0, accuracy=0.25),
                                make_state())
            rounds = ledger.rounds(run_id)
        assert rounds == [make_record(0, accuracy=0.25)]

    def test_checkpoint_round_trip(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {}, {}, 2)
            ledger.commit_round(run_id, make_record(0), make_state(1.0))
            ledger.commit_round(run_id, make_record(1), make_state(7.0))
            index, state = ledger.checkpoint(run_id)
            assert index == 1
            np.testing.assert_array_equal(state["layer.weight"],
                                          np.full((2, 3), 7.0))
            index, state = ledger.checkpoint(run_id, round_index=0)
            assert index == 0
            np.testing.assert_array_equal(state["layer.weight"],
                                          np.full((2, 3), 1.0))

    def test_reopen_flips_status_back(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {}, {}, 1)
            ledger.finish_run(run_id)
            assert ledger.run(run_id).status == "completed"
            ledger.reopen_run(run_id)
            info = ledger.run(run_id)
            assert info.status == "running"
            assert info.finished_at is None

    def test_latest_run_and_listing(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            first = ledger.begin_run("one", {}, {}, 1)
            second = ledger.begin_run("two", {}, {}, 1)
            assert [r.run_id for r in ledger.runs()] == [first, second]
            assert ledger.run().run_id == second

    def test_metadata_columns_round_trip(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run(
                "demo", {"rounds": 1}, {"seed": 3}, 1,
                scenario={"seed": 9}, recipe={"target": "m:f", "kwargs": {}},
                bench={"git_sha": "a" * 40, "cpu_count": 4},
            )
            ledger.finish_run(run_id, report={"skipped_rounds": 1})
            info = ledger.run(run_id)
        assert info.name == "demo"
        assert info.scenario == {"seed": 9}
        assert info.recipe == {"target": "m:f", "kwargs": {}}
        assert info.bench["cpu_count"] == 4
        assert info.report == {"skipped_rounds": 1}

    def test_close_is_idempotent(self, ledger_path):
        ledger = RunLedger(ledger_path)
        ledger.close()
        ledger.close()


class TestAppendOnly:
    def test_recommitting_a_round_raises(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {}, {}, 1)
            ledger.commit_round(run_id, make_record(0), make_state())
            with pytest.raises(LedgerError, match="append-only"):
                ledger.commit_round(run_id, make_record(0), make_state())
            # the original payload is untouched
            assert ledger.rounds(run_id) == [make_record(0)]

    def test_contiguity_gap_is_corruption(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {}, {}, 3)
            ledger.commit_round(run_id, make_record(0), make_state())
            ledger.commit_round(run_id, make_record(2), make_state())
            with pytest.raises(LedgerCorruptError, match="contiguous"):
                ledger.rounds(run_id)


class TestNeverOverwrite:
    def test_not_sqlite_refused(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("definitely not a database")
        with pytest.raises(LedgerCorruptError, match="refusing"):
            RunLedger(path)
        assert path.read_text() == "definitely not a database"

    def test_foreign_sqlite_refused(self, tmp_path):
        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(LedgerSchemaError, match="not a run ledger"):
            RunLedger(path)

    def test_wrong_schema_version_refused(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA application_id = 0x44554248")
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(LedgerSchemaError, match="refusing to migrate"):
            RunLedger(path)

    def test_missing_file_without_create(self, tmp_path):
        with pytest.raises(LedgerError, match="no ledger"):
            RunLedger(tmp_path / "absent.db", create=False)

    def test_damaged_checkpoint_refused(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            run_id = ledger.begin_run("demo", {}, {}, 1)
            ledger.commit_round(run_id, make_record(0), make_state())
        conn = sqlite3.connect(ledger_path)
        conn.execute("UPDATE rounds SET state = ?",
                     (state_to_bytes(make_state(999.0)),))
        conn.commit()
        conn.close()
        with RunLedger(ledger_path, create=False) as ledger:
            with pytest.raises(LedgerCorruptError, match="SHA-256"):
                ledger.checkpoint(run_id)


class TestCrossProcessVisibility:
    def test_second_connection_sees_committed_rounds(self, ledger_path):
        writer = RunLedger(ledger_path)
        run_id = writer.begin_run("demo", {}, {}, 2)
        writer.commit_round(run_id, make_record(0), make_state())
        reader = RunLedger(ledger_path, create=False)
        try:
            assert reader.round_count(run_id) == 1
            writer.commit_round(run_id, make_record(1), make_state())
            assert reader.round_count(run_id) == 2
        finally:
            reader.close()
            writer.close()

    def test_unknown_run_operations_raise(self, ledger_path):
        with RunLedger(ledger_path) as ledger:
            with pytest.raises(LedgerError, match="contains no runs"):
                ledger.run()
            with pytest.raises(LedgerError, match="no run"):
                ledger.run("missing")
            with pytest.raises(LedgerError, match="no run"):
                ledger.finish_run("missing")
            run_id = ledger.begin_run("demo", {}, {}, 1)
            with pytest.raises(LedgerError, match="no committed checkpoint"):
                ledger.checkpoint(run_id)


def test_state_sha256_matches_blob():
    blob = state_to_bytes(make_state())
    assert len(state_sha256(blob)) == 64
    assert state_sha256(blob) == state_sha256(blob)
