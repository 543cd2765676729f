#!/usr/bin/env python3
"""End-to-end benchmark of a whole Dubhe round, layer by layer.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload train_inproc --seed 7 \\
        --seconds 10 --trace 0

prints, as the last line of standard output, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every workload, several fresh processes each, interleaved::

    python3 benchmarks/e2e/run.py                  # full: 5 runs x 5 workloads
    python3 benchmarks/e2e/run.py --smoke          # tiny sizes, seconds
    python3 benchmarks/e2e/run.py --check-repeat   # two sets must agree
    python3 benchmarks/e2e/run.py --trace-out benchmarks/e2e/.work/spans

checks every output, prints every metric by name with unit, quartiles and
sample count, and writes the numbers to ``benchmarks/e2e/baseline.json``.
See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: a child run may build nothing, so this only bounds a hung round
CHILD_TIMEOUT = 600


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this "
                        "process and print its result object")
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs are a function of the seed alone; run i "
                        "of a set uses seed + i (pass another base seed for "
                        "held-out confirmation)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region per run (default: run_seconds of "
                        "BENCHMARK.json, 0.2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the layers and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every path in seconds")
    parser.add_argument("--reps", type=int, default=None,
                        help="runs per workload in a set (default 5, 1 with "
                        "--smoke)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets and fail unless set B is within "
                        "every bound of set A")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the traced runs' spans: a file with "
                        "--workload, else a directory (one file per workload)")
    parser.add_argument("--out", default=None,
                        help="where to write the numbers (default "
                        "benchmarks/e2e/baseline.json; nowhere with --smoke)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from e2e_metrics.py")
    return parser.parse_args(argv)


# -- one workload, this process ---------------------------------------------------

def run_single(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from e2e_harness import pin_to_one_cpu, run_workload

    cpu = pin_to_one_cpu()     # before numpy starts its threads
    from e2e_workloads import WORKLOAD_CLASSES

    if args.workload not in WORKLOAD_CLASSES:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOAD_CLASSES)}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke,
                          trace_out=args.trace_out, cpu=cpu)
    print(json.dumps(result), flush=True)     # the last line of stdout
    return 0 if result["correct"] else 1


# -- every workload, fresh processes ----------------------------------------------

def run_child(workload: str, seed: int, args, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(args.trace_out, f"{workload}.json")]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} (seed {seed}, trace {trace}) printed no "
                         f"result, exit code {done.returncode}:\n{done.stderr}")
    result["notes"] = lines[:-1]
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_set(args, label: str) -> dict:
    """``reps`` runs of every workload, round-robin so drift hits all alike."""
    from e2e_metrics import WORKLOADS

    runs = {name: [] for name in WORKLOADS}
    for rep in range(args.reps):
        for name in WORKLOADS:
            result = run_child(name, args.seed + rep, args, trace=0)
            runs[name].append(result)
            print(f"[{label}] {name} run {rep + 1}/{args.reps}: "
                  + ("ok" if result["correct"] else "FAILED CHECKS")
                  + f", {result['failed']}/{result['attempted']} ops failed",
                  flush=True)
    summary = {}
    for name, results in runs.items():
        metrics = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q3 = quartiles(values)
            median = statistics.median(values)
            metrics[metric] = {
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / median,
                "unit": results[0]["metrics"][metric]["unit"],
                "values": values,
            }
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary[name] = {
            "end_to_end": metrics,
            "op_failure_rate": failed / attempted,
            "attempted": attempted, "failed": failed,
            "correct": all(r["correct"] for r in results),
        }
    return summary


def print_set(summary: dict, label: str) -> None:
    print(f"\n== end-to-end, set {label} (median [q1, q3] over n fresh "
          "processes; spread = (q3 - q1) / median) ==")
    for name, entry in summary.items():
        for metric, s in entry["end_to_end"].items():
            print(f"{name:<20} {metric:<14} {s['median']:>12.4f} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] {s['unit']:<4} "
                  f"n={s['n']} spread={100 * s['spread']:.1f}%")
        print(f"{name:<20} {'op_failure_rate':<14} "
              f"{entry['op_failure_rate']:>12.4f} "
              f"({entry['failed']}/{entry['attempted']})")


def compare_sets(a: dict, b: dict) -> bool:
    """Set B must be within each metric's own bound of set A."""
    from e2e_metrics import END_TO_END

    print("\n== check-repeat: set B against set A ==")
    agree = True
    for name in a:
        for metric in END_TO_END:
            first = a[name]["end_to_end"][metric.name]
            second = b[name]["end_to_end"][metric.name]
            change = (second["median"] - first["median"]) / first["median"]
            worse = change if metric.better == "lower" else -change
            ok = worse <= metric.bound
            agree &= ok
            print(f"{name:<20} {metric.name:<14} A={first['median']:.4f} "
                  f"B={second['median']:.4f} worse by {100 * worse:+.1f}% "
                  f"(bound {100 * metric.bound:.0f}%, spreads "
                  f"{100 * first['spread']:.1f}%/{100 * second['spread']:.1f}%)"
                  f" {'ok' if ok else 'OUTSIDE BOUND'}")
        agree &= (a[name]["failed"] == 0 and b[name]["failed"] == 0)
    return agree


def environment(args) -> dict:
    import numpy

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return {
        "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
    }


def run_all(args) -> int:
    from e2e_metrics import PER_LAYER, WORKLOADS

    sets = {"A": run_set(args, "A")}
    if args.check_repeat:
        sets["B"] = run_set(args, "B")
    traces = {}
    for name in WORKLOADS:
        result = run_child(name, args.seed, args, trace=1)
        traces[name] = result
        print(f"[trace] {name}: "
              + ("ok" if result["correct"] else "FAILED CHECKS"), flush=True)

    for label, summary in sets.items():
        print_set(summary, label)
    print("\n== per layer (one traced run per workload; seconds and counts "
          "are per block) ==")
    for name, result in traces.items():
        print("\n".join(result["notes"]))
        for metric in PER_LAYER:
            value = result["metrics"][metric.name]["value"]
            if value:
                print(f"{name:<20} {metric.name:<32} {value:>14.6g} "
                      f"{metric.unit}")

    correct = (all(entry["correct"] for s in sets.values() for entry in s.values())
               and all(result["correct"] for result in traces.values()))
    agree = compare_sets(sets["A"], sets["B"]) if args.check_repeat else True

    if args.out:
        payload = {
            "benchmark": "e2e", "generated_by": "benchmarks/e2e/run.py",
            # baseline numbers only: a later change that claims a gain names
            # it in its own issue, never here
            "claim": None,
            "environment": environment(args),
            "workloads": {
                name: {
                    **sets["A"][name],
                    "per_layer": {metric: entry["value"] for metric, entry
                                  in traces[name]["metrics"].items()},
                } for name in WORKLOADS},
            "moves": {metric.name: [list(pair) for pair in metric.moves]
                      for metric in PER_LAYER},
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    if not correct:
        print("FAIL: a correctness check failed", file=sys.stderr)
    if not agree:
        print("FAIL: set B is outside a bound of set A", file=sys.stderr)
    return 0 if correct and agree else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        from e2e_metrics import manifest

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.seconds is None:
        from e2e_metrics import RUN_SECONDS

        args.seconds = 0.2 if args.smoke else float(RUN_SECONDS)
    if args.workload:
        return run_single(args)
    if args.reps is None:
        args.reps = 1 if args.smoke else 5
    if args.out is None and not args.smoke:
        args.out = os.path.join(HERE, "baseline.json")
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
