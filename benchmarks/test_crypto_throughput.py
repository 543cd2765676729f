"""Crypto throughput: packed + precomputed-noise pipeline vs per-component.

The §6.4 overhead study costs the secure protocol at one ciphertext per
registry component.  The packed pipeline (``repro.crypto.packing`` +
``NoisePool``) must beat that baseline by a wide margin on the paper's own
registry workload — this benchmark enforces the acceptance bar (≥ 5× faster
encryption for 100 clients × length-56 registries at 256-bit keys) and
checks the two pipelines stay bit-identical.

``benchmarks/bench_crypto.py`` runs the same measurement across key sizes
and records it in ``BENCH_crypto.json``.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np
import pytest

from bench_crypto import bench_key_size, fold, registry_workload
from helpers import print_table
from repro.crypto import (
    EncryptedVector,
    NoisePool,
    PackedEncryptedVector,
    PackingScheme,
    generate_keypair,
)

KEY_SIZE = 256
N_CLIENTS = 100
REGISTRY_LENGTH = 56
MIN_ENCRYPT_SPEEDUP = 5.0


def paper_scale() -> dict:
    return {"key_size": 2048, "n_clients": (1000, 8962),
            "registry_length": (56, 53),
            "paper_per_registry": {"encrypt_s": 6.9, "decrypt_s": 1.9}}


@pytest.mark.benchmark(group="crypto")
def test_packed_pipeline_throughput(benchmark):
    """100 clients × length-56 registries at 256-bit keys, both pipelines."""

    def experiment():
        return bench_key_size(KEY_SIZE, N_CLIENTS, REGISTRY_LENGTH)

    row = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("crypto throughput: per-component vs packed", [{
        "pipeline": name,
        "ciphertexts/client": row[name]["ciphertexts_per_client"],
        "wire_kb/client": round(row[name]["wire_bytes_per_client"] / 1024, 2),
        "encrypt_s": row[name]["encrypt_s"],
        "aggregate_s": row[name]["aggregate_s"],
        "decrypt_s": row[name]["decrypt_s"],
    } for name in ("per_component", "packed")])

    speedup = row["speedup"]
    # the tentpole acceptance bar: packed encryption ≥ 5× faster online
    assert speedup["encrypt"] >= MIN_ENCRYPT_SPEEDUP, speedup
    # packing must also shrink the wire and speed up aggregate decryption
    assert speedup["wire"] > 1.0
    assert row["packed"]["wire_bytes_per_client"] < row["per_component"]["wire_bytes_per_client"]
    # fewer ciphertexts per registry is the whole point
    assert row["packed"]["ciphertexts_per_client"] < REGISTRY_LENGTH


@pytest.mark.benchmark(group="crypto")
def test_noise_pool_amortizes_encryption(benchmark):
    """With precomputed noise, per-component encryption drops the pow()."""

    keypair = generate_keypair(KEY_SIZE, rng=random.Random(0))
    pk = keypair.public_key
    vectors = registry_workload(10, REGISTRY_LENGTH)

    def experiment():
        start = perf_counter()
        cold = [EncryptedVector.encrypt(pk, v) for v in vectors]
        cold_s = perf_counter() - start
        pool = NoisePool(pk)
        pool.refill(REGISTRY_LENGTH * len(vectors))
        start = perf_counter()
        warm = [EncryptedVector.encrypt(pk, v, noise=pool) for v in vectors]
        warm_s = perf_counter() - start
        return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = benchmark.pedantic(experiment, rounds=1, iterations=1)
    # precomputed noise must pay off even without packing
    assert warm_s < cold_s
    # same plaintexts either way
    for a, b in zip(cold, warm):
        np.testing.assert_array_equal(a.decrypt(keypair.private_key),
                                      b.decrypt(keypair.private_key))


@pytest.mark.benchmark(group="crypto")
def test_packed_aggregate_matches_per_component_bitwise(benchmark):
    """Deep aggregation at the n_clients headroom stays bit-identical."""

    keypair = generate_keypair(KEY_SIZE, rng=random.Random(1))
    pk, sk = keypair.public_key, keypair.private_key
    vectors = registry_workload(N_CLIENTS, REGISTRY_LENGTH)

    def experiment():
        scheme = PackingScheme(pk, REGISTRY_LENGTH, max_weight=N_CLIENTS)
        packed = fold([
            PackedEncryptedVector.encrypt(pk, v, scheme=scheme) for v in vectors[:20]
        ]).decrypt(sk)
        plain = np.sum(vectors[:20], axis=0)
        return packed, plain

    packed, plain = benchmark.pedantic(experiment, rounds=1, iterations=1)
    np.testing.assert_array_equal(packed, plain)
