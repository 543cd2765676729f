"""§6.4 — encryption and communication overhead of Dubhe.

Paper numbers (Paillier with 2048-bit keys, pure-Python implementation):

* registries of length 56 / 53 → plaintext 0.47–0.49 KB, ciphertext
  29.6–31.28 KB, encryption ≈ 6.9 s, decryption ≈ 1.9 s;
* the multi-time distribution vector (C = 52) → plaintext 0.68 KB,
  ciphertext 29.1 KB, encryption ≈ 6.8 s, decryption ≈ 1.7 s;
* communication: ``K`` check-ins per round as in any FL system, plus ``N``
  registry messages per re-registration and ``≈ H·K`` messages per round for
  multi-time client determination.

Every figure here is read off the :class:`~repro.core.secure.ProtocolStats`
of the rounds that actually register and select — there is no second
measurement loop.  The stats count bytes *moved*: every message carries one
vector's ciphertexts and is booked at sender and receiver, and a
registration also books the N-client sync of the aggregate.  So the
per-vector figures are ``ciphertext_bytes / messages`` and
``plaintext_bytes`` per upload.  Ciphertext size depends only on the key
size and the vector length, so the sizes are reproduced exactly.  Timing
depends on the machine and the bignum implementation; the key-size sweep
(including the paper's 2048 bits) shows the scaling — seconds per registry,
negligible next to hours of training.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from helpers import print_table
from repro.core import (
    DubheConfig,
    SecureDistributionAggregation,
    SecureDubheSelector,
    SecureRegistrationRound,
)
from repro.crypto import KeyAgent, PackingScheme
from repro.data import EMDTargetPartitioner, half_normal_class_proportions

#: registry length → (C, reference set G, thresholds)
REGISTRIES = {
    56: (10, (1, 2, 10), {1: 0.7, 2: 0.1, 10: 0.0}),
    53: (52, (1, 52), {1: 0.7, 52: 0.0}),
}
#: the multi-time distribution vector: C = 52 classes, uploaded by K clients
DISTRIBUTION_CLASSES = 52
DISTRIBUTION_K = 20
KEY_SIZES = (256, 1024, 2048)


def paper_scale() -> dict:
    return {"key_size": 2048,
            "paper_registry": {"plaintext_kb": (0.47, 0.49), "ciphertext_kb": (29.6, 31.28),
                               "encrypt_s": 6.9, "decrypt_s": 1.9},
            "paper_distribution": {"plaintext_kb": 0.68, "ciphertext_kb": 29.1,
                                   "encrypt_s": 6.8, "decrypt_s": 1.7}}


def per_vector_row(vector: str, length: int, key_size: int, uploads: int,
                   stats) -> dict:
    """One §6.4 row: a round's stats divided down to one vector."""
    ciphertext = stats.ciphertext_bytes / stats.messages
    plaintext = stats.plaintext_bytes / uploads
    return {"vector": vector, "length": length, "key_size": key_size,
            "plaintext_b": plaintext, "ciphertext_b": ciphertext,
            "plaintext_kb": round(plaintext / 1024, 3),
            "ciphertext_kb": round(ciphertext / 1024, 3),
            "expansion": round(ciphertext / plaintext, 1),
            "encrypt_s": round(stats.encrypt_seconds / uploads, 4),
            "decrypt_s": round(stats.decrypt_seconds, 4)}


def registry_row(length: int, key_size: int) -> dict:
    """A one-client per-component registration round over one registry."""
    num_classes, reference_set, thresholds = REGISTRIES[length]
    config = DubheConfig(num_classes=num_classes, reference_set=reference_set,
                         thresholds=thresholds, key_size=key_size)
    streamed = SecureRegistrationRound(
        config, agent=KeyAgent(key_size, rng=random.Random(0))).run_stream(
        np.full((1, num_classes), 1.0 / num_classes))
    assert streamed.registration.length == length
    return per_vector_row("registry", length, key_size, streamed.n_clients,
                          streamed.stats)


def distribution_row(key_size: int) -> dict:
    """One scored try: K packed ``p_l`` uploads, one fold, one decrypt."""
    config = DubheConfig(num_classes=DISTRIBUTION_CLASSES, reference_set=(1, 52),
                         thresholds={1: 0.7, 52: 0.0},
                         participants_per_round=DISTRIBUTION_K, key_size=key_size)
    aggregation = SecureDistributionAggregation(
        config, agent=KeyAgent(key_size, rng=random.Random(0)))
    distributions = np.random.default_rng(0).dirichlet(
        np.ones(DISTRIBUTION_CLASSES), size=DISTRIBUTION_K)
    aggregation.population(distributions, range(DISTRIBUTION_K))
    row = per_vector_row("distribution (packed)", DISTRIBUTION_CLASSES, key_size,
                         DISTRIBUTION_K, aggregation.stats)
    scheme = PackingScheme(aggregation.keypair.public_key, DISTRIBUTION_CLASSES,
                           max_weight=DISTRIBUTION_K)
    row["ciphertexts"] = scheme.num_ciphertexts
    return row


@pytest.mark.benchmark(group="sec64")
def test_sec64_encryption_overhead(benchmark):
    """Registry / distribution-vector encryption cost across key sizes."""

    def experiment():
        rows = []
        for key_size in KEY_SIZES:
            rows.extend(registry_row(length, key_size) for length in REGISTRIES)
            rows.append(distribution_row(key_size))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("§6.4: encryption overhead per vector, from ProtocolStats",
                [{k: v for k, v in row.items() if not k.endswith("_b")}
                 for row in rows])

    registries = {(r["length"], r["key_size"]): r for r in rows
                  if r["vector"] == "registry"}
    # per-component: one ciphertext of 2·key_bytes per registry slot
    for (length, key_size), row in registries.items():
        assert row["ciphertext_b"] == length * 2 * (key_size // 8)
        assert row["plaintext_b"] == {56: 520, 53: 493}[length]
    # packed: ⌈C/slots⌉ ciphertexts per distribution upload
    for row in rows:
        if "ciphertexts" in row:
            assert row["ciphertext_b"] == row["ciphertexts"] * 2 * (row["key_size"] // 8)

    # ciphertext expansion: tens of KB at 2048 bits for a length-56 registry,
    # matching the paper's 29.6-31.3 KB
    paper_scale_row = registries[56, 2048]
    assert 25.0 <= paper_scale_row["ciphertext_kb"] <= 40.0
    assert 0.3 <= paper_scale_row["plaintext_kb"] <= 0.7
    assert paper_scale_row["expansion"] > 25

    # cost grows with the key size (both bytes and time)
    small = registries[56, 256]
    assert paper_scale_row["ciphertext_b"] > small["ciphertext_b"]
    assert paper_scale_row["encrypt_s"] > small["encrypt_s"]

    # even at 2048 bits the per-registry cost is seconds, not minutes —
    # negligible next to a training round (the paper's argument)
    assert paper_scale_row["encrypt_s"] < 60
    assert paper_scale_row["decrypt_s"] < 60


@pytest.mark.benchmark(group="sec64")
def test_sec64_messages(benchmark):
    """Messages a real selector books, and the paper-N rows they imply."""
    n, k, h, selects = 40, 8, 3, 2
    global_dist = half_normal_class_proportions(10, 10.0)
    distributions = EMDTargetPartitioner(n, 64, 1.5, seed=0).partition(
        global_dist).client_distributions()
    num_classes, reference_set, thresholds = REGISTRIES[56]
    config = DubheConfig(num_classes=num_classes, reference_set=reference_set,
                         thresholds=thresholds, participants_per_round=k,
                         tentative_selections=h, key_size=256)

    def experiment():
        selector = SecureDubheSelector(
            distributions, config, seed=0,
            agent=KeyAgent(256, rng=random.Random(0)))
        booked = [selector.stats.messages]
        for r in range(selects):
            selector.select(r)
            booked.append(selector.stats.messages)
        return booked

    booked = benchmark.pedantic(experiment, rounds=1, iterations=1)
    # a registration: N uploads booked at sender and server, plus N syncs of
    # the aggregate; a select: K uploads per try, booked at both ends
    assert booked == [3 * n + 2 * k * h * s for s in range(selects + 1)]

    rows = []
    for n_clients, participants in ((1000, 20), (8962, 20)):
        for tries in (1, 10):
            rows.append({
                "N": n_clients, "K": participants, "H": tries,
                "baseline": participants,
                "paper_registration": n_clients,
                "paper_multi_time": tries * participants,
                "booked_registration": 3 * n_clients,
                "booked_select": 2 * participants * tries,
            })
    print_table("§6.4: communication messages per round "
                f"(forms verified on N={n}, K={k}, H={h})", rows)
