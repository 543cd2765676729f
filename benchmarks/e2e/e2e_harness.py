"""One run of one workload: set up, check, time blocks, report.

The order is the house idiom - correctness before timing:

1. set the system up ``setup_reps`` times (inputs, keys, federation, server,
   fleet, first cold op), timing each; ``setup_s`` is the median;
2. check the outputs against a reference (reference time is not counted);
3. run blocks, a fixed number of ops each, one op in flight at a time, until
   ``seconds`` of timed region have accumulated, collecting garbage before
   each block;
4. release everything, run the end-of-run checks, print the result.

Two things keep the numbers steady on a shared virtual machine, where the
same code otherwise swings by a fifth from one minute to the next.  The run
pins itself to one CPU (``pin_to_one_cpu``), and every timing is net of
*steal*: the seconds the hypervisor ran someone else on that CPU while the
benchmark wanted it, read from ``/proc/stat`` around each set-up and block.
On a machine that is not shared steal is zero and the timings are plain
wall time.

End-to-end numbers come from untraced runs only.  A traced run (``trace``)
wraps the layers' public functions, traces every other block and leaves the
rest untraced, so the same process yields the per-layer figures and the cost
of tracing itself.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from time import perf_counter
from typing import Optional

from e2e_metrics import BLOCK_COUNTS, BLOCK_SPANS, END_TO_END, LAYERS, PER_LAYER
from e2e_tracing import Tracer
from e2e_workloads import WORKLOAD_CLASSES, Driver

__all__ = ["pin_to_one_cpu", "run_workload"]


def pin_to_one_cpu() -> Optional[int]:
    """Keep every thread of this run on one CPU; returns it (None: unpinned).

    The rounds of ``round_socket_ledger`` are serialised by the interpreter
    lock, so a second CPU only adds cross-CPU wake-ups: on the 2-vCPU
    reference box a run whose threads the kernel happened to keep together
    had a p50 of 23 ms and one it spread out 40 ms, which made the metric
    bimodal between runs.  Pinned, every run is the first kind.  The other
    workloads are single-threaded and measure the same either way.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None     # not Linux, or not allowed: measure unpinned
    return cpu


def _steal_seconds(cpu: Optional[int]) -> float:
    """Seconds the hypervisor has so far kept *cpu* from this machine."""
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def _timed(cpu: Optional[int], function, *args):
    """Run *function*; returns ``(result, wall seconds, share not stolen)``.

    Steal is counted in clock ticks (10 ms), so the share is only as good as
    the interval is long; it is never taken below a half.
    """
    stolen = _steal_seconds(cpu)
    start = perf_counter()
    result = function(*args)
    wall = perf_counter() - start
    stolen = _steal_seconds(cpu) - stolen
    return result, wall, min(1.0, max(0.5, 1.0 - stolen / wall))


def _percentile(values: list, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, trace_out: Optional[str] = None,
                 cpu: Optional[int] = None) -> dict:
    """Run workload *name* once and return the result object to print.

    *cpu* is the CPU the run is pinned to, whose steal is taken off every
    timing (``None``: timings are plain wall time).
    """
    workload = WORKLOAD_CLASSES[name](seed, smoke)
    tracer = None
    if trace:
        tracer = Tracer()
        for instrument in workload.instruments:
            instrument(tracer)
        tracer.enabled = True      # set-up spans carry the cold costs
    driver = Driver(tracer)
    setups: list[float] = []
    failed = 0

    def timed_setup():
        system, wall, unstolen = _timed(cpu, workload.setup)
        setups.append(wall * unstolen)
        return system

    system = None
    try:
        for rep in range(1 if trace else workload.setup_reps):
            if system is not None:
                failed += workload.teardown(system)
            system = timed_setup()
        attempted, check_failed = workload.check(system)
        failed += check_failed

        blocks = []                # (BlockResult, traced, first op, end op)
        measured = 0.0
        least = (2 if smoke else 3) * (2 if trace else 1)
        while measured < seconds or len(blocks) < least:
            if workload.restart_each_block:
                failed += workload.teardown(system)
                system = timed_setup()
            traced = trace and len(blocks) % 2 == 0
            if trace:
                tracer.enabled = traced
            gc.collect()
            first_op = driver.next_op
            result, _, unstolen = _timed(cpu, workload.block, system, driver)
            if trace:
                tracer.enabled = True
            measured += result.wall
            # spans are plain wall time, so the block keeps its own too
            result.net_wall = result.wall * unstolen
            result.latencies = [s * unstolen for s in result.latencies]
            blocks.append((result, traced, first_op, driver.next_op))
            attempted += result.ops
            failed += result.failed

        latencies = [s for result, *_ in blocks for s in result.latencies]
        if trace:
            metrics = _per_layer(workload, system, tracer, blocks, latencies,
                                 failed / attempted)
            if trace_out:
                tracer.dump(trace_out)
        else:
            rates = [result.ops / result.net_wall for result, *_ in blocks]
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": statistics.median(setups),
                "ops_per_s": statistics.median(rates),
                "op_ms_p50": statistics.median(latencies) * 1e3,
                "peak_rss_mb": peak_kb / 1024,
            }
            metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                       for m in END_TO_END}
            print(f"{name}: {len(blocks)} blocks of {workload.ops_per_block} "
                  f"ops, {len(latencies)} latency samples, {len(setups)} "
                  f"set-ups, {measured:.2f} s timed")
    finally:
        if system is not None:
            failed += workload.teardown(system)
        if tracer is not None:
            tracer.restore()
    return {"correct": failed == 0, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def _per_layer(workload, system, tracer: Tracer, blocks, latencies,
               failure_rate: float) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is idle)."""
    traced = [set(range(first, end)) for _, on, first, end in blocks if on]
    traced_ops = set().union(*traced)
    values = {m.name: 0.0 for m in PER_LAYER}

    per_block_seconds = [tracer.durations(ops) for ops in traced]
    for metric, span in BLOCK_SPANS.items():
        values[metric] = statistics.median(
            seconds.get(span, 0.0) for seconds in per_block_seconds)
    per_block_counts = [tracer.counted(ops) for ops in traced]
    for metric in BLOCK_COUNTS:
        values[metric] = statistics.median(
            counts[metric] for counts in per_block_counts)

    counted = tracer.counted(traced_ops)
    if counted["crypto.encrypt_vectors"]:
        values["crypto.ciphertexts_per_vector"] = (
            counted["crypto.encrypt_ciphertexts"]
            / counted["crypto.encrypt_vectors"])
    if counted["crypto.aggregates"]:
        values["crypto.fold_depth"] = (counted["crypto.fold_depth_sum"]
                                       / counted["crypto.aggregates"])
    # set-up only spans: every one recorded, whatever op was in flight
    inits = [end - start for span, start, end, *_ in tracer.spans
             if span == "core.selector_init"]
    if inits:
        values["core.selector_init_s"] = statistics.median(inits)
    values["core.register_batch_cold_s"] = tracer.first_duration(
        "core.register_batch")

    wall = sum(result.wall for result, on, *_ in blocks if on)
    layers = tracer.layer_self_seconds(traced_ops)
    for layer in LAYERS:
        share = 100.0 * layers.get(layer, 0.0) / wall
        if f"share.{layer}_pct" in values:
            values[f"share.{layer}_pct"] = share
    # traced and untraced blocks alternate, so both medians see the same drift
    slow, fast = (statistics.median(
        s for result, on, *_ in blocks if on is traced_side
        for s in result.latencies) for traced_side in (True, False))
    values["bench.trace_overhead_pct"] = 100.0 * (slow / fast - 1.0)
    values["bench.op_ms_p95"] = _percentile(latencies, 0.95) * 1e3
    values["bench.op_samples"] = len(latencies)
    values["bench.ops_per_block"] = workload.ops_per_block
    values["bench.op_failure_rate"] = failure_rate
    values.update(workload.layer_metrics(system, tracer, traced_ops, latencies))

    covered = 100.0 * sum(layers.values()) / wall
    print(f"{workload.name}: {len(traced)} traced blocks, {wall:.2f} s traced "
          f"wall, layer self times cover {covered:.1f}% of it")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {seconds:8.3f} s  {100.0 * seconds / wall:5.1f}%")
    units = {m.name: m.unit for m in PER_LAYER}
    return {name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()}
