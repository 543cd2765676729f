"""Tests of the CI benchmark-regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "benchmarks", "compare_bench.py")
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def sim_payload(vectorized=4.0, warm=5.0, eval_speedup=2.1, n_test=2000):
    return {
        "benchmark": "simulation_throughput",
        "results": [
            {"k": 32, "samples_per_client": 64,
             "speedup_vs_sequential": {"vectorized": vectorized}},
        ],
        "multi_round": {"k": 32, "rounds": 5, "warm_vs_cold_speedup": warm},
        "evaluation": {"n_test": n_test, "sequential_batch_size": 64,
                       "batched_vs_sequential_speedup": eval_speedup},
    }


def crypto_payload(encrypt=400.0, keyholder=1.6):
    return {
        "benchmark": "crypto_throughput",
        "results": [
            {"key_size": 256, "n_clients": 100, "registry_length": 56,
             "noise": {"terms": 400, "keyholder_vs_public": keyholder},
             "speedup": {"encrypt": encrypt, "encrypt_incl_noise": 4.6,
                         "aggregate": 4.4, "decrypt": 4.8, "wire": 4.7}},
        ],
    }


def registry_payload(speedup=80.0, reduction=7.8, with_reduction=True,
                     n=10000, count_packing=7):
    memory = {"streaming_peak_mb": 1.1, "materialized_clients": 10000,
              "materialized_peak_mb": 8.5,
              "reduction": reduction if with_reduction else None}
    return {
        "benchmark": "registry_scale",
        "results": [
            {"n": n, "batch_size": 4096, "num_classes": 10,
             "codebook_length": 56,
             "registration": {"batch_s": 0.004, "clients_per_s": 2.2e6,
                              "loop_clients": 10000, "loop_s": 0.35},
             "memory": memory,
             "tree": {"arity": 2, "fold_depth": 14, "flat_depth": n - 1},
             "speedup": {"register_batch": speedup}},
        ],
        "secure": {"n_clients": 1024, "key_size": 128,
                   "ciphertexts_per_client": {"default_packing": 28,
                                              "count_packing": count_packing}},
    }


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestExtractMetrics:
    def test_sim_metrics(self):
        metrics = compare_bench.extract_metrics(sim_payload())
        assert sorted(metrics) == [
            "sim/evaluation/batched_vs_sequential_speedup",
            "sim/k=32/speedup/vectorized",
        ]
        assert metrics["sim/k=32/speedup/vectorized"]["value"] == 4.0
        assert metrics["sim/k=32/speedup/vectorized"]["workload"] == {
            "samples_per_client": 64}

    def test_one_shot_multiround_ratio_not_gated(self):
        # warm_vs_cold divides by a single un-repeated cold-round timing;
        # the gate must never consume it
        metrics = compare_bench.extract_metrics(sim_payload())
        assert "sim/multi_round/warm_vs_cold_speedup" not in metrics

    def test_host_dependent_modes_not_gated(self):
        payload = sim_payload()
        payload["results"][0]["speedup_vs_sequential"].update(
            {"thread": 0.9, "process": 0.52})
        metrics = compare_bench.extract_metrics(payload)
        assert "sim/k=32/speedup/thread" not in metrics
        assert "sim/k=32/speedup/process" not in metrics
        assert "sim/k=32/speedup/vectorized" in metrics

    def test_crypto_metrics_keep_only_stable_ratios(self):
        metrics = compare_bench.extract_metrics(crypto_payload())
        assert metrics["crypto/key=256/speedup/encrypt"]["value"] == 400.0
        assert metrics["crypto/key=256/speedup/wire"]["value"] == 4.7
        assert metrics["crypto/key=256/speedup/encrypt_incl_noise"]["value"] == 4.6
        assert metrics["crypto/key=256/noise/keyholder_vs_public"] == {
            "value": 1.6, "workload": {"terms": 400}}
        # one-shot ms-scale timings must never be gated
        assert "crypto/key=256/speedup/aggregate" not in metrics
        assert "crypto/key=256/speedup/decrypt" not in metrics

    def test_sections_optional(self):
        payload = sim_payload()
        payload["multi_round"] = None
        payload["evaluation"] = None
        metrics = compare_bench.extract_metrics(payload)
        assert list(metrics) == ["sim/k=32/speedup/vectorized"]

    def test_workload_mismatch_is_skipped_not_gated(self, tmp_path):
        # same keys, different eval workload: the regressed-looking eval
        # ratio must be skipped instead of failing the gate
        baseline = write(tmp_path, "base.json", sim_payload(eval_speedup=2.1))
        candidate = write(tmp_path, "cand.json",
                          sim_payload(eval_speedup=0.5, n_test=200))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 0

    def test_registry_metrics(self):
        metrics = compare_bench.extract_metrics(registry_payload())
        assert metrics["registry/n=10000/speedup/register_batch"]["value"] == 80.0
        assert metrics["registry/n=10000/speedup/register_batch"]["workload"] == {
            "batch_size": 4096, "num_classes": 10, "loop_clients": 10000}
        assert metrics["registry/n=10000/memory/reduction"]["value"] == 7.8
        assert metrics["registry/secure/packing_ciphertext_ratio"]["value"] == \
            pytest.approx(4.0)

    def test_registry_null_reduction_not_gated(self):
        # at full scale the materialised comparison run is capped, so the
        # reduction ratio is recorded as null — it must not become a metric
        metrics = compare_bench.extract_metrics(
            registry_payload(with_reduction=False, n=1000000))
        assert "registry/n=1000000/memory/reduction" not in metrics
        assert "registry/n=1000000/speedup/register_batch" in metrics

    def test_registry_gate_catches_vectorisation_regression(self, tmp_path):
        baseline = write(tmp_path, "base.json", registry_payload(speedup=80.0))
        candidate = write(tmp_path, "cand.json", registry_payload(speedup=8.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 1

    def test_registry_gate_catches_packing_regression(self, tmp_path):
        baseline = write(tmp_path, "base.json", registry_payload())
        candidate = write(tmp_path, "cand.json",
                          registry_payload(count_packing=28))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 1

    def test_crypto_gate_catches_losing_the_keyholder_path(self, tmp_path):
        # routing client noise back through the full exponentiation is 1.0x
        baseline = write(tmp_path, "base.json", crypto_payload(keyholder=1.6))
        candidate = write(tmp_path, "cand.json", crypto_payload(keyholder=1.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 1

    def test_unknown_payload_is_empty(self):
        assert compare_bench.extract_metrics({"benchmark": "other"}) == {}

    def test_real_committed_baselines_have_metrics(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name in ("BENCH_sim.json", "BENCH_crypto.json",
                     "BENCH_registry.json"):
            with open(os.path.join(root, name)) as fh:
                assert compare_bench.extract_metrics(json.load(fh))

    def test_committed_crypto_baseline_counts_the_noise(self):
        # with the noise precompute counted, packing saves exactly what it
        # saves in ciphertexts: one r^n per ciphertext on both pipelines
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCH_crypto.json")) as fh:
            rows = json.load(fh)["results"]
        assert [row["key_size"] for row in rows] == [256, 1024, 2048]
        for row in rows:
            count_ratio = (row["per_component"]["ciphertexts_per_client"]
                           / row["packed"]["ciphertexts_per_client"])
            assert row["speedup"]["encrypt_incl_noise"] == pytest.approx(
                count_ratio, rel=0.25)
            assert row["noise"]["keyholder_vs_public"] > 1.2


class TestGate:
    def test_within_tolerance_passes(self, tmp_path):
        baseline = write(tmp_path, "base.json", sim_payload(vectorized=4.0))
        candidate = write(tmp_path, "cand.json", sim_payload(vectorized=3.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 0

    def test_regression_fails(self, tmp_path):
        baseline = write(tmp_path, "base.json", sim_payload(vectorized=4.0))
        candidate = write(tmp_path, "cand.json", sim_payload(vectorized=2.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 1

    def test_override_flag_downgrades(self, tmp_path):
        baseline = write(tmp_path, "base.json", sim_payload(vectorized=4.0))
        candidate = write(tmp_path, "cand.json", sim_payload(vectorized=1.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate,
                                   "--allow-regression"]) == 0

    def test_only_shared_metrics_compared(self, tmp_path):
        # smoke candidate without the extra sections never fails on them
        candidate_payload = sim_payload(vectorized=3.9)
        candidate_payload.pop("multi_round")
        candidate_payload.pop("evaluation")
        baseline = write(tmp_path, "base.json", sim_payload())
        candidate = write(tmp_path, "cand.json", candidate_payload)
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 0

    def test_custom_tolerance(self, tmp_path):
        baseline = write(tmp_path, "base.json", sim_payload(vectorized=4.0))
        candidate = write(tmp_path, "cand.json", sim_payload(vectorized=3.9))
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate,
                                   "--tolerance", "0.0"]) == 1

    def test_no_shared_metrics_is_an_error(self, tmp_path):
        baseline = write(tmp_path, "base.json", sim_payload())
        candidate = write(tmp_path, "cand.json", crypto_payload())
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate]) == 2

    def test_invalid_tolerance(self, tmp_path):
        baseline = write(tmp_path, "base.json", sim_payload())
        candidate = write(tmp_path, "cand.json", sim_payload())
        assert compare_bench.main(["--baseline", baseline,
                                   "--candidate", candidate,
                                   "--tolerance", "1.5"]) == 2

    def test_both_files_are_required(self):
        with pytest.raises(SystemExit):
            compare_bench.main(["--baseline", "only.json"])
