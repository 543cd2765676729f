"""Smoke test of the end-to-end benchmark and its manifest.

Runs every workload at ``--smoke`` sizes (untraced and traced, fresh
processes) and checks that ``BENCHMARK.json`` says what ``e2e_metrics.py``
declares and what the runs actually print.  Timings are never asserted.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import e2e_metrics  # noqa: E402  (sys.path set up above)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def test_manifest_says_what_the_catalogue_declares():
    manifest = load(os.path.join(ROOT, "BENCHMARK.json"))
    assert manifest == e2e_metrics.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert len(manifest["workloads"]) == 5
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]
    # the benchmark's command may name files under its own paths only
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in e2e_metrics.END_TO_END}
    for metric in e2e_metrics.PER_LAYER:
        assert metric.moves, metric.name
        for moved, workload in metric.moves:
            assert moved in end_to_end, metric.name
            assert workload in e2e_metrics.WORKLOADS, metric.name


def test_baseline_claims_nothing():
    baseline = load(os.path.join(HERE, "baseline.json"))
    assert baseline["claim"] is None
    assert set(baseline["workloads"]) == set(e2e_metrics.WORKLOADS)
    for entry in baseline["workloads"].values():
        assert entry["correct"] and entry["op_failure_rate"] == 0
        assert set(entry["end_to_end"]) == {
            m.name for m in e2e_metrics.END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in e2e_metrics.PER_LAYER}


def test_smoke_runs_every_workload_and_checks_its_outputs(tmp_path):
    out = tmp_path / "numbers.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    numbers = load(out)
    assert numbers["claim"] is None
    for name in e2e_metrics.WORKLOADS:
        entry = numbers["workloads"][name]
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1
        assert list(entry["end_to_end"]) == [
            m.name for m in e2e_metrics.END_TO_END]
        for metric in entry["end_to_end"].values():
            assert metric["median"] > 0
        assert set(entry["per_layer"]) == {m.name for m in e2e_metrics.PER_LAYER}
    # every metric is printed by name
    for metric in e2e_metrics.END_TO_END:
        assert metric.name in done.stdout
    # each workload keeps its predicted dominant layer even at smoke sizes
    layers = {name: entry["per_layer"]
              for name, entry in numbers["workloads"].items()}
    assert layers["register_stream"]["share.crypto_pct"] > 50
    assert layers["select_secure"]["share.crypto_pct"] > 50
    assert layers["select_scale"]["share.core_pct"] > 50
    assert layers["train_inproc"]["share.crypto_pct"] == 0
    assert layers["train_inproc"]["share.transport_pct"] == 0
    assert layers["round_socket_ledger"]["ledger.commits"] > 0
    assert layers["round_socket_ledger"]["transport.frames_per_round"] > 0
    # the temporary ledgers are gone
    assert not [name for name in os.listdir(os.path.join(HERE, ".work"))
                if name.startswith("ledger-")]


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "select_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
