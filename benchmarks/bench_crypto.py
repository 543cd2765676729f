#!/usr/bin/env python
"""Crypto throughput benchmark: per-component vs packed Paillier pipeline.

Measures the full registry data path of the secure protocol — encrypt N
clients' registries, homomorphically aggregate, decrypt the aggregate — in
the two wire formats:

* **per-component** — one ciphertext (and one ``r^n mod n²``) per vector
  component (:class:`repro.crypto.EncryptedVector`);
* **packed** — BatchCrypt-style slot packing with precomputed noise
  (:class:`repro.crypto.PackedEncryptedVector` + ``NoisePool``), the
  configuration deployed by FATE-style systems.

Both pipelines encrypt the way a Dubhe client does: the agent dispatched
``sk_t`` to every client, so the noise comes from a ``NoisePool`` built on
the private key (the CRT spelling of ``r^n mod n²``).
``noise.keyholder_vs_public`` records what that spelling buys over the full
exponentiation, on terms asserted equal before timing.

The noise precompute is timed separately: it is plaintext-independent and
can run offline (between rounds / on idle cores), which is why the packed
pipeline is fast *online* (``speedup.encrypt``).  The honest,
all-costs-counted figure is ``speedup.encrypt_incl_noise`` — per-component
encrypt over (noise precompute + packed encrypt) — which comes out at the
ciphertext-count ratio, because one ``r^n`` per ciphertext is all either
pipeline really pays.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_crypto.py

which writes ``BENCH_crypto.json`` next to this repository's ROADMAP.  Use
``--key-sizes 256 --min-speedup 5 --min-noise-speedup 1.2`` as a CI smoke
check (exits non-zero when packed encryption fails to beat per-component, or
key-holder noise the full exponentiation, by the given factor).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from time import perf_counter

import numpy as np

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src")) and \
        os.path.join(_REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.crypto import (  # noqa: E402  (sys.path setup above)
    EncryptedVector,
    NoisePool,
    PackedEncryptedVector,
    PackingScheme,
    generate_keypair,
    plaintext_vector_bytes,
)
from repro.crypto.packing import StreamingTreeAggregator  # noqa: E402

#: Registry length of the paper's §6.4 study (reference set G = {1, 2, C}).
REGISTRY_LENGTH = 56

#: Noise terms timed per spelling for ``noise.keyholder_vs_public``: enough to
#: average over, few enough that 2048 bits stays in seconds.
NOISE_TERMS = {256: 400, 1024: 24, 2048: 8}

#: Default clients per key size: full scale where per-component encryption
#: is cheap, reduced where a single registry already costs seconds.
DEFAULT_CLIENTS = {256: 100, 1024: 8, 2048: 4}


def fold(vectors):
    """The homomorphic sum of *vectors*: the server's flat left-to-right fold."""
    aggregator = StreamingTreeAggregator(arity=None)
    for vector in vectors:
        aggregator.push(vector)
    return aggregator.combined()


def registry_workload(n_clients: int, length: int) -> list[np.ndarray]:
    """N one-hot registries (the values do not affect Paillier cost)."""
    vectors = []
    for k in range(n_clients):
        v = np.zeros(length)
        v[k % length] = 1.0
        vectors.append(v)
    return vectors


def bench_noise(pk, sk, terms: int, seed: int) -> dict:
    """Time ``r^n mod n²`` both ways on the same ``r`` values."""
    rng = random.Random(seed)
    rs = [pk.get_random_lt_n(rng) for _ in range(terms)]
    start = perf_counter()
    public = [pk.raw_noise(r) for r in rs]
    public_s = perf_counter() - start
    start = perf_counter()
    keyholder = [sk.raw_noise(r) for r in rs]
    keyholder_s = perf_counter() - start
    if keyholder != public:
        raise AssertionError(
            f"key-holder and public noise terms differ at {pk.key_size} bits")
    return {
        "terms": terms,
        "public_ms_per_term": round(1e3 * public_s / terms, 4),
        "keyholder_ms_per_term": round(1e3 * keyholder_s / terms, 4),
        "keyholder_vs_public": round(public_s / keyholder_s, 2),
    }


def bench_key_size(key_size: int, n_clients: int, length: int,
                   seed: int = 0) -> dict:
    """Measure both pipelines end-to-end at one key size."""
    keypair = generate_keypair(key_size, rng=random.Random(seed))
    pk, sk = keypair.public_key, keypair.private_key
    vectors = registry_workload(n_clients, length)
    plaintext_bytes = plaintext_vector_bytes(vectors[0])
    noise_row = bench_noise(pk, sk, NOISE_TERMS.get(key_size, 8), seed)
    # the clients' pool on sk_t; unfilled it generates inline, inside the timing
    noise = NoisePool(sk)

    # -- per-component pipeline ---------------------------------------------
    start = perf_counter()
    per_component = [EncryptedVector.encrypt(pk, v, noise=noise)
                     for v in vectors]
    pc_encrypt = perf_counter() - start
    start = perf_counter()
    pc_total = fold(per_component)
    pc_aggregate = perf_counter() - start
    start = perf_counter()
    pc_plain = pc_total.decrypt(sk)
    pc_decrypt = perf_counter() - start

    # -- packed pipeline (precomputed noise) --------------------------------
    scheme = PackingScheme(pk, length, max_weight=n_clients)
    start = perf_counter()
    noise.refill(scheme.num_ciphertexts * n_clients)
    noise_precompute = perf_counter() - start
    start = perf_counter()
    packed = [PackedEncryptedVector.encrypt(pk, v, scheme=scheme, noise=noise)
              for v in vectors]
    pk_encrypt = perf_counter() - start
    start = perf_counter()
    pk_total = fold(packed)
    pk_aggregate = perf_counter() - start
    start = perf_counter()
    pk_plain = pk_total.decrypt(sk)
    pk_decrypt = perf_counter() - start

    if not np.array_equal(pc_plain, pk_plain):
        raise AssertionError(
            f"packed and per-component aggregates differ at {key_size} bits"
        )

    return {
        "key_size": key_size,
        "n_clients": n_clients,
        "registry_length": length,
        "plaintext_bytes_per_client": plaintext_bytes,
        "per_component": {
            "ciphertexts_per_client": length,
            "wire_bytes_per_client": per_component[0].nbytes(),
            "encrypt_s": round(pc_encrypt, 6),
            "aggregate_s": round(pc_aggregate, 6),
            "decrypt_s": round(pc_decrypt, 6),
            "expansion_factor": round(per_component[0].nbytes() / plaintext_bytes, 1),
        },
        "packed": {
            "ciphertexts_per_client": scheme.num_ciphertexts,
            "slots_per_ciphertext": scheme.slots_per_ciphertext,
            "slot_bits": scheme.slot_bits,
            "wire_bytes_per_client": packed[0].nbytes(),
            "noise_precompute_s": round(noise_precompute, 6),
            "encrypt_s": round(pk_encrypt, 6),
            "aggregate_s": round(pk_aggregate, 6),
            "decrypt_s": round(pk_decrypt, 6),
            "expansion_factor": round(packed[0].nbytes() / plaintext_bytes, 1),
        },
        "noise": noise_row,
        "speedup": {
            "encrypt": round(pc_encrypt / pk_encrypt, 1) if pk_encrypt else None,
            "encrypt_incl_noise": round(
                pc_encrypt / (noise_precompute + pk_encrypt), 1),
            "aggregate": round(pc_aggregate / pk_aggregate, 1) if pk_aggregate else None,
            "decrypt": round(pc_decrypt / pk_decrypt, 1) if pk_decrypt else None,
            "wire": round(per_component[0].nbytes() / packed[0].nbytes(), 1),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--key-sizes", default="256,1024,2048",
                        help="comma-separated Paillier modulus sizes in bits")
    parser.add_argument("--clients", type=int, default=None,
                        help="override clients for every key size")
    parser.add_argument("--length", type=int, default=REGISTRY_LENGTH,
                        help="registry vector length")
    parser.add_argument("--out", default=os.path.join(_REPO_ROOT, "BENCH_crypto.json"),
                        help="output JSON path")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail (exit 1) when the packed encrypt speedup at "
                             "the first key size falls below this factor")
    parser.add_argument("--min-noise-speedup", type=float, default=None,
                        help="fail (exit 1) when key-holder noise is not this "
                             "many times faster than the full exponentiation "
                             "at the largest key size (the ratio grows with "
                             "the modulus)")
    args = parser.parse_args(argv)

    key_sizes = [int(k) for k in args.key_sizes.split(",")]
    results = []
    for key_size in key_sizes:
        n_clients = args.clients or DEFAULT_CLIENTS.get(key_size, 4)
        print(f"benchmarking {key_size}-bit keys, {n_clients} clients "
              f"x length-{args.length} registries ...", flush=True)
        row = bench_key_size(key_size, n_clients, args.length)
        results.append(row)
        s = row["speedup"]
        print(f"  encrypt {row['per_component']['encrypt_s']:.3f}s -> "
              f"{row['packed']['encrypt_s']:.3f}s ({s['encrypt']}x online, "
              f"{s['encrypt_incl_noise']}x with noise counted), "
              f"wire {s['wire']}x smaller, decrypt {s['decrypt']}x faster, "
              f"key-holder noise {row['noise']['keyholder_vs_public']}x")

    payload = {
        "benchmark": "crypto_throughput",
        "generated_by": "benchmarks/bench_crypto.py",
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform()},
        "workload": "one-hot registries, full encrypt -> aggregate -> decrypt",
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.min_speedup is not None:
        achieved = results[0]["speedup"]["encrypt"]
        if achieved is None or achieved < args.min_speedup:
            print(f"FAIL: packed encrypt speedup {achieved}x < required "
                  f"{args.min_speedup}x", file=sys.stderr)
            return 1
        print(f"OK: packed encrypt speedup {achieved}x >= {args.min_speedup}x")
    if args.min_noise_speedup is not None:
        largest = max(results, key=lambda row: row["key_size"])
        achieved = largest["noise"]["keyholder_vs_public"]
        if achieved < args.min_noise_speedup:
            print(f"FAIL: key-holder noise speedup {achieved}x at "
                  f"{largest['key_size']} bits < required "
                  f"{args.min_noise_speedup}x", file=sys.stderr)
            return 1
        print(f"OK: key-holder noise speedup {achieved}x at "
              f"{largest['key_size']} bits >= {args.min_noise_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
