#!/usr/bin/env python
"""Regression gate: compare a smoke benchmark run against a committed baseline.

CI runs the smoke variants of ``bench_crypto.py`` / ``bench_sim.py`` /
``bench_registry.py`` on whatever runner it gets, so *absolute* throughput is
not comparable to the committed ``BENCH_*.json`` (different CPUs, different
load).  What IS comparable are the machine-relative **ratios** both files
record — packed vs per-component encryption, key-holder vs public-key
encryption noise, vectorized vs sequential
training, warm vs cold rounds, batched vs sequential evaluation, batched vs
looped registration and streaming vs materialised peak memory: each divides
two measurements taken on the same box, so a code-level regression moves
them on every machine.

This script extracts every ratio metric present in *both* files and fails
(exit 1) when any candidate value has regressed more than ``--tolerance``
(default 30%) below the baseline.  ``--allow-regression`` downgrades
failures to warnings — the override for intentional trade-offs (pair it with
regenerating the committed baseline in the same PR).

Two guardrails keep the gate honest:

* only *stable* ratios are compared — averaged-over-many-operations or
  deterministic ones (packed-encrypt speedup, wire-size ratio, per-mode
  training speedups, warm/cold split, eval speedup).  One-shot
  millisecond-scale timings (crypto aggregate/decrypt) are recorded in the
  JSON but excluded here: on a loaded shared runner they can swing far more
  than any real regression.
* every metric carries a **workload fingerprint** (cohort size, test-set
  size, client count, …); a metric whose fingerprint differs between
  baseline and candidate is skipped with a warning instead of being gated
  across incomparable workloads.

Usage::

    python benchmarks/compare_bench.py --baseline BENCH_sim.json \
        --candidate /tmp/BENCH_sim_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["compare", "extract_metrics", "main"]


#: crypto speedup components stable enough to gate: ``encrypt`` and
#: ``encrypt_incl_noise`` (the all-costs-counted figure) are averaged over
#: every client's full registry, ``wire`` is a deterministic byte ratio.
#: ``aggregate``/``decrypt`` are one-shot millisecond timings — recorded in
#: the JSON, too noisy to gate on shared runners.
STABLE_CRYPTO_COMPONENTS = ("encrypt", "encrypt_incl_noise", "wire")

#: executor modes whose speedup-vs-sequential ratio tracks code-level changes
#: rather than the host; any other mode in a payload (older baselines still
#: carry ``thread``/``process`` rows, whose ratios swung with core count and
#: spawn overhead) is recorded but never gated.
STABLE_SIM_MODES = ("vectorized",)


def extract_metrics(payload: dict) -> dict[str, dict]:
    """Flatten a BENCH_*.json payload to comparable ratio metrics.

    Keys are stable, human-readable paths (``sim/k=32/speedup/vectorized``);
    each entry holds the dimensionless ``value`` and the ``workload``
    fingerprint it was measured under.  Unknown payloads yield an empty dict
    rather than an error, so the gate degrades gracefully on schema drift.
    """
    metrics: dict[str, dict] = {}

    def add(key: str, value: float, workload: dict) -> None:
        metrics[key] = {"value": float(value), "workload": workload}

    benchmark = payload.get("benchmark", "")
    if benchmark == "crypto_throughput":
        for row in payload.get("results", []):
            key = f"crypto/key={row.get('key_size')}"
            workload = {"n_clients": row.get("n_clients"),
                        "registry_length": row.get("registry_length")}
            for component, value in (row.get("speedup") or {}).items():
                if component in STABLE_CRYPTO_COMPONENTS:
                    add(f"{key}/speedup/{component}", value, workload)
            noise = row.get("noise") or {}
            if noise.get("keyholder_vs_public") is not None:
                # CRT vs full-size r^n mod n², averaged over `terms` draws
                add(f"{key}/noise/keyholder_vs_public",
                    noise["keyholder_vs_public"], {"terms": noise.get("terms")})
    elif benchmark == "simulation_throughput":
        for row in payload.get("results", []):
            key = f"sim/k={row.get('k')}"
            workload = {"samples_per_client": row.get("samples_per_client")}
            for mode, value in (row.get("speedup_vs_sequential") or {}).items():
                if mode in STABLE_SIM_MODES:
                    add(f"{key}/speedup/{mode}", value, workload)
        # multi_round's warm_vs_cold_speedup is NOT gated: its numerator is a
        # one-shot cold-round timing, exactly the class of measurement the
        # module guardrail excludes (the nightly --min-warm-speedup gate
        # checks it against a loose absolute floor instead)
        evaluation = payload.get("evaluation")
        if evaluation:
            add("sim/evaluation/batched_vs_sequential_speedup",
                evaluation["batched_vs_sequential_speedup"],
                {"n_test": evaluation.get("n_test"),
                 "sequential_batch_size": evaluation.get("sequential_batch_size")})
    elif benchmark == "registry_scale":
        for row in payload.get("results", []):
            key = f"registry/n={row.get('n')}"
            registration = row.get("registration") or {}
            workload = {"batch_size": row.get("batch_size"),
                        "num_classes": row.get("num_classes"),
                        "loop_clients": registration.get("loop_clients")}
            speedup = (row.get("speedup") or {}).get("register_batch")
            if speedup is not None:
                # averaged over >= 10^4 registrations per side: stable
                add(f"{key}/speedup/register_batch", speedup, workload)
            memory = row.get("memory") or {}
            # reduction is only recorded when the materialised run covered
            # the same N (it is capped at smoke scale); tracemalloc peaks
            # are allocation counts, not timings, so the ratio is stable
            if memory.get("reduction") is not None:
                add(f"{key}/memory/reduction", memory["reduction"],
                    {"batch_size": row.get("batch_size"),
                     "num_classes": row.get("num_classes"),
                     "materialized_clients": memory.get("materialized_clients")})
        secure = payload.get("secure")
        if secure:
            # deterministic byte ratio: count packing vs the float default
            per_client = secure.get("ciphertexts_per_client") or {}
            if per_client.get("count_packing"):
                add("registry/secure/packing_ciphertext_ratio",
                    per_client["default_packing"] / per_client["count_packing"],
                    {"n_clients": secure.get("n_clients"),
                     "key_size": secure.get("key_size")})
    return metrics


def compare(baseline: dict[str, dict], candidate: dict[str, dict],
            tolerance: float) -> tuple[list[str], list[str]]:
    """Return (report lines, regression lines) for the shared metrics.

    Metrics whose workload fingerprints differ between the two files are
    reported as skipped, never gated — a ratio measured on a different
    test-set size or cohort is not evidence either way.
    """
    lines: list[str] = []
    regressions: list[str] = []
    shared = sorted(set(baseline) & set(candidate))
    for key in shared:
        base = baseline[key]
        cand = candidate[key]
        if base["workload"] != cand["workload"]:
            lines.append(
                f"  {key}: SKIPPED (workload mismatch: baseline "
                f"{base['workload']}, candidate {cand['workload']})"
            )
            continue
        floor = base["value"] * (1.0 - tolerance)
        status = "ok"
        if cand["value"] < floor:
            status = "REGRESSED"
            regressions.append(
                f"{key}: {cand['value']:g}x < {floor:g}x "
                f"(baseline {base['value']:g}x - {tolerance:.0%})"
            )
        lines.append(f"  {key}: baseline {base['value']:g}x, "
                     f"candidate {cand['value']:g}x [{status}]")
    return lines, regressions


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--candidate", required=True,
                        help="freshly generated smoke BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop below the baseline "
                             "ratio before the gate fails (default 0.30)")
    parser.add_argument("--allow-regression", action="store_true",
                        help="report regressions but exit 0 (override for "
                             "intentional trade-offs)")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        print("tolerance must lie in [0, 1)", file=sys.stderr)
        return 2

    with open(args.baseline) as fh:
        baseline = extract_metrics(json.load(fh))
    with open(args.candidate) as fh:
        candidate = extract_metrics(json.load(fh))

    if not baseline:
        print(f"no comparable metrics in baseline {args.baseline}", file=sys.stderr)
        return 2
    lines, regressions = compare(baseline, candidate, args.tolerance)
    if not lines:
        print("no shared metrics between baseline and candidate", file=sys.stderr)
        return 2

    print(f"comparing {args.candidate} against {args.baseline} "
          f"(tolerance {args.tolerance:.0%}):")
    for line in lines:
        print(line)
    if all("SKIPPED" in line for line in lines):
        print("WARNING: every shared metric was measured under a different "
              "workload; nothing was gated")
        return 0
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        if args.allow_regression:
            print("--allow-regression set: exiting 0 despite regressions")
            return 0
        return 1
    print("OK: no metric regressed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
