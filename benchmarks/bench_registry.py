#!/usr/bin/env python
"""Registry scale benchmark: the million-client registration/selection path.

Sweeps N ∈ {10^4, 10^5, 10^6} (configurable) over the four scaled paths this
repo ships and records ``BENCH_registry.json``:

* **registration** — vectorised Algorithm 1 (`RegistryCodebook.register_batch`)
  streamed in chunks, with a per-client loop of `register` as the capped
  reference; the two are asserted index-identical before timing counts.
* **probability** — the vectorised eq. (6) over all N against the scalar
  per-client reference, asserted bit-identical.
* **selection** — `DubheSelector` construction + one multi-time selection at
  K = min(1000, N/10), H = 4, all on the batch path.
* **memory** — `tracemalloc` peaks: one `register_batch` over all N (its
  outputs plus row-block scratch), streaming registration (batch generator,
  nothing materialised) vs one `RegistrationResult` (with its one-hot
  registry) per client at a capped N, yielding the memory-reduction ratio the
  CI gate watches.
* **tree** — fold-depth of the streaming tree aggregator at the full N
  (flat depth is N − 1, tree depth is O(log N)), probed without crypto.
* **secure** — a real encrypted round at ``--secure-clients`` (Paillier cost
  is per-ciphertext, so the full N would take days; the capped run is the
  *same code path* streaming runs at any N): `run_stream()` with a flat and
  a tree fold, each asserted to decrypt to the plaintext overall registry,
  with the count-packing ciphertext reduction recorded.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_registry.py

CI smoke uses ``--sizes 10000`` and gates the ratios via
``benchmarks/compare_bench.py``; the nightly workflow runs the full sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tracemalloc
from time import perf_counter

import numpy as np

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src")) and \
        os.path.join(_REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.core.config import DubheConfig  # noqa: E402  (sys.path setup above)
from repro.core.probability import (  # noqa: E402
    participation_probabilities,
    participation_probability,
)
from repro.core.registry import RegistryCodebook  # noqa: E402
from repro.core.secure import SecureRegistrationRound  # noqa: E402
from repro.core.selectors import DubheSelector  # noqa: E402
from repro.crypto.packing import (  # noqa: E402
    PackingScheme,
    StreamingTreeAggregator,
)

#: Dirichlet concentration of the synthetic non-IID population (≈ the
#: paper's skewed MNIST splits: most clients have 1–2 dominating classes).
DIRICHLET_ALPHA = 0.3

#: Cap on the per-client reference loops (register / scalar eq. (6)):
#: the point of the reference is the speedup ratio and the equivalence
#: assert, both of which 10^4 clients establish; looping 10^6 would just
#: make the sweep take minutes for no extra information.
LOOP_CAP = 10_000

#: Cap on the materialised-memory reference (one RegistrationResult + one
#: one-hot vector per client) — at 10^5 it already costs ~100 MB.
MATERIALIZE_CAP = 10_000

#: Documented peak-allocation ceiling for streaming registration at any N
#: (see docs/scaling.md): O(batch), so the same bound holds at N = 10^6.
#: A one-shot `register_batch` is held to it too: 16 MB of int64 outputs
#: plus O(block) scratch at N = 10^6.
STREAMING_PEAK_CEILING_MB = 64.0


def bench_config(participants: int, batch_size: int, key_size: int = 128,
                 tries: int = 4) -> DubheConfig:
    """The paper's 10-class group-1 configuration at benchmark scale."""
    return DubheConfig(
        num_classes=10, reference_set=(1, 2, 10),
        thresholds={1: 0.7, 2: 0.1, 10: 0.0},
        participants_per_round=participants, tentative_selections=tries,
        key_size=key_size, registration_batch_size=batch_size,
    )


def population(n: int, num_classes: int, seed: int) -> np.ndarray:
    """N skewed client label distributions, deterministic per (n, seed)."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(num_classes, DIRICHLET_ALPHA), size=n)


class _DepthProbe:
    """A zero-cost stand-in ciphertext: lets the tree aggregator's depth be
    measured at N = 10^6 without a single modular multiplication."""

    __slots__ = ()

    def copy(self) -> "_DepthProbe":
        return self

    def add_(self, other: "_DepthProbe") -> "_DepthProbe":
        return self


def bench_size(n: int, batch_size: int, arity: int, seed: int = 0) -> dict:
    """All plaintext-side sections of the sweep at one population size."""
    k = max(1, min(1000, n // 10))
    config = bench_config(k, batch_size)
    codebook = RegistryCodebook(config)
    distributions = population(n, config.num_classes, seed)

    # -- registration: vectorised Algorithm 1, streamed in chunks -----------
    start = perf_counter()
    batch = codebook.register_batch(distributions)
    batch_s = perf_counter() - start

    loop_clients = min(n, LOOP_CAP)
    start = perf_counter()
    loop_results = [codebook.register(p) for p in distributions[:loop_clients]]
    loop_s = perf_counter() - start
    loop_indices = np.array([r.index for r in loop_results])
    if not np.array_equal(batch.indices[:loop_clients], loop_indices):
        raise AssertionError(f"register_batch diverged from register at n={n}")
    # per-client cost ratio: both averaged over >= 10^4 clients
    register_speedup = (loop_s / loop_clients) / (batch_s / n)

    # -- probability: vectorised eq. (6) over all N --------------------------
    overall = batch.overall_registry()
    start = perf_counter()
    probabilities = participation_probabilities(codebook, batch, overall, k)
    prob_vec_s = perf_counter() - start
    start = perf_counter()
    prob_ref = np.array([
        participation_probability(overall, int(i), k)
        for i in batch.indices[:loop_clients]
    ])
    prob_loop_s = perf_counter() - start
    if not np.array_equal(probabilities[:loop_clients], prob_ref):
        raise AssertionError(f"vectorised probabilities diverged at n={n}")

    # -- selection: DubheSelector end-to-end on the batch path ---------------
    start = perf_counter()
    selector = DubheSelector(distributions, config, seed=seed)
    init_s = perf_counter() - start
    start = perf_counter()
    selected = selector.select(0)
    select_s = perf_counter() - start
    if len(selected) != k:
        raise AssertionError(f"selection returned {len(selected)} != K={k}")

    # -- memory: one-shot, streaming and materialised peaks ------------------
    tracemalloc.start()
    tracemalloc.reset_peak()
    codebook.register_batch(distributions)
    _, batch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    rng = np.random.default_rng(seed)
    counts = np.zeros(codebook.length)
    tracemalloc.start()
    tracemalloc.reset_peak()
    remaining = n
    while remaining:
        b = min(batch_size, remaining)
        chunk = rng.dirichlet(np.full(config.num_classes, DIRICHLET_ALPHA), size=b)
        reg = codebook.register_batch(chunk)
        counts += np.bincount(reg.indices, minlength=codebook.length)
        remaining -= b
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    if counts.sum() != n:
        raise AssertionError("streaming registration lost clients")

    mat_clients = min(n, MATERIALIZE_CAP)
    tracemalloc.start()
    tracemalloc.reset_peak()
    mat_distributions = population(mat_clients, config.num_classes, seed)
    mat_results = [codebook.register(p) for p in mat_distributions]
    overall = codebook.empty_registry()
    for result in mat_results:
        overall += result.registry
    _, mat_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del mat_results
    # reduction is only a like-for-like ratio when both run the same N
    reduction = (mat_peak / stream_peak) if mat_clients == n else None

    # -- tree fold depth at the full N (no crypto needed) --------------------
    agg = StreamingTreeAggregator(arity=arity)
    probe = _DepthProbe()
    for _ in range(n):
        agg.push(probe)
    tree_depth = agg.depth

    return {
        "n": n,
        "batch_size": batch_size,
        "num_classes": config.num_classes,
        "codebook_length": codebook.length,
        "registration": {
            "batch_s": round(batch_s, 6),
            "clients_per_s": round(n / batch_s),
            "loop_clients": loop_clients,
            "loop_s": round(loop_s, 6),
        },
        "probability": {
            "vectorized_s": round(prob_vec_s, 6),
            "loop_clients": loop_clients,
            "loop_s": round(prob_loop_s, 6),
        },
        "selection": {
            "k": k,
            "tries": config.tentative_selections,
            "init_s": round(init_s, 6),
            "select_s": round(select_s, 6),
        },
        "memory": {
            "batch_peak_mb": round(batch_peak / 2**20, 3),
            "streaming_peak_mb": round(stream_peak / 2**20, 3),
            "materialized_clients": mat_clients,
            "materialized_peak_mb": round(mat_peak / 2**20, 3),
            "reduction": round(reduction, 1) if reduction is not None else None,
        },
        "tree": {
            "arity": arity,
            "fold_depth": tree_depth,
            "flat_depth": n - 1,
            "partials": agg.partials,
        },
        "speedup": {
            "register_batch": round(register_speedup, 1),
        },
    }


def bench_secure(n_clients: int, batch_size: int, arity: int,
                 key_size: int, seed: int = 0) -> dict:
    """One real encrypted round, streamed with a flat and with a tree fold.

    Paillier cost scales per-ciphertext, so the encrypted section runs at a
    capped client count — the code path (chunked encrypt, streaming fold) is
    exactly what any N runs through; only wall-clock differs.
    """
    config = bench_config(max(1, n_clients // 10), batch_size,
                          key_size=key_size)
    distributions = population(n_clients, config.num_classes, seed)

    expected = RegistryCodebook(config).register_batch(
        distributions).overall_registry()

    start = perf_counter()
    flat = SecureRegistrationRound(
        config, packed=True, precompute_noise=True,
        aggregation="flat").run_stream(distributions)
    stream_flat_s = perf_counter() - start

    start = perf_counter()
    tree = SecureRegistrationRound(
        config, packed=True, precompute_noise=True,
        aggregation="tree", arity=arity).run_stream(distributions)
    stream_tree_s = perf_counter() - start

    for label, streamed in (("flat", flat), ("tree", tree)):
        if not np.array_equal(streamed.overall, expected):
            raise AssertionError(
                f"streaming ({label}) decrypted a different overall registry "
                "than the plaintext one")

    codebook_length = flat.registration.length
    from repro.crypto.paillier import generate_keypair
    public, _ = generate_keypair(key_size)
    default_cts = PackingScheme(public, codebook_length,
                                max_weight=n_clients).num_ciphertexts
    count_cts = PackingScheme.for_counts(public, codebook_length,
                                         max_weight=n_clients).num_ciphertexts

    return {
        "n_clients": n_clients,
        "key_size": key_size,
        "batch_size": batch_size,
        "stream_flat_s": round(stream_flat_s, 3),
        "stream_tree_s": round(stream_tree_s, 3),
        "fold_depth": {"flat": flat.fold_depth, "tree": tree.fold_depth,
                       "arity": arity},
        "num_batches": flat.num_batches,
        "ciphertexts_per_client": {"default_packing": default_cts,
                                   "count_packing": count_cts},
        "stream_ciphertext_mb": round(flat.stats.ciphertext_bytes / 2**20, 2),
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10000,100000,1000000",
                        help="comma-separated population sizes N")
    parser.add_argument("--batch-size", type=int, default=4096,
                        help="streaming registration chunk size")
    parser.add_argument("--arity", type=int, default=2,
                        help="tree aggregation arity")
    parser.add_argument("--secure-clients", type=int, default=1024,
                        help="client count for the real encrypted round "
                             "(0 skips the secure section)")
    parser.add_argument("--secure-key-size", type=int, default=128,
                        help="Paillier modulus bits for the secure section")
    parser.add_argument("--out",
                        default=os.path.join(_REPO_ROOT, "BENCH_registry.json"),
                        help="output JSON path")
    parser.add_argument("--min-batch-speedup", type=float, default=None,
                        help="fail (exit 1) when register_batch's per-client "
                             "speedup over the loop falls below this factor")
    parser.add_argument("--max-peak-mb", type=float,
                        default=STREAMING_PEAK_CEILING_MB,
                        help="fail (exit 1) when any one-shot or streaming "
                             "registration peak exceeds this many MB "
                             "(0 disables)")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    results = []
    for n in sizes:
        print(f"benchmarking N={n} ...", flush=True)
        row = bench_size(n, args.batch_size, args.arity)
        results.append(row)
        print(f"  register_batch {row['registration']['batch_s']:.3f}s "
              f"({row['registration']['clients_per_s']} clients/s, "
              f"{row['speedup']['register_batch']}x over the loop), "
              f"selection {row['selection']['select_s']:.3f}s at "
              f"K={row['selection']['k']}, one-shot peak "
              f"{row['memory']['batch_peak_mb']} MB, streaming peak "
              f"{row['memory']['streaming_peak_mb']} MB, tree depth "
              f"{row['tree']['fold_depth']} vs flat {row['tree']['flat_depth']}")

    secure = None
    if args.secure_clients > 0:
        print(f"secure round at {args.secure_clients} clients, "
              f"{args.secure_key_size}-bit keys ...", flush=True)
        secure = bench_secure(args.secure_clients, args.batch_size,
                              args.arity, args.secure_key_size)
        print(f"  stream flat {secure['stream_flat_s']}s, stream tree "
              f"{secure['stream_tree_s']}s (depth "
              f"{secure['fold_depth']['tree']} vs "
              f"{secure['fold_depth']['flat']}), bit-identical")

    payload = {
        "benchmark": "registry_scale",
        "generated_by": "benchmarks/bench_registry.py",
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform()},
        "workload": "Dirichlet(0.3) 10-class population; group-1 codebook",
        "streaming_peak_ceiling_mb": STREAMING_PEAK_CEILING_MB,
        "results": results,
        "secure": secure,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    failed = False
    if args.min_batch_speedup is not None:
        achieved = results[0]["speedup"]["register_batch"]
        if achieved < args.min_batch_speedup:
            print(f"FAIL: register_batch speedup {achieved}x < required "
                  f"{args.min_batch_speedup}x", file=sys.stderr)
            failed = True
        else:
            print(f"OK: register_batch speedup {achieved}x >= "
                  f"{args.min_batch_speedup}x")
    if args.max_peak_mb:
        for key, label in (("batch_peak_mb", "one-shot"),
                           ("streaming_peak_mb", "streaming")):
            worst = max(row["memory"][key] for row in results)
            if worst > args.max_peak_mb:
                print(f"FAIL: {label} registration peak {worst} MB > ceiling "
                      f"{args.max_peak_mb} MB", file=sys.stderr)
                failed = True
            else:
                print(f"OK: {label} registration peaks <= {args.max_peak_mb} "
                      f"MB (worst {worst} MB)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
