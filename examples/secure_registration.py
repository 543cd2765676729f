#!/usr/bin/env python
"""Secure registration walk-through: what the server can and cannot see.

This example follows one registration round (Figure 4 of the paper) message
by message:

1. the agent generates a Paillier key-pair and dispatches it to the clients;
2. every client fills its registry locally (Algorithm 1) and encrypts it;
3. the server aggregates *ciphertexts only* and synchronises the result;
4. the clients (who hold the secret key) decrypt the overall registry and
   compute their own participation probabilities.

Along the way it prints what the server observes — ciphertext blobs whose
contents it cannot read — versus what the clients learn, plus the measured
encryption / communication overhead of the round (§6.4).

Run it with::

    python examples/secure_registration.py

or, to ship BatchCrypt-style packed ciphertexts (many registry slots per
Paillier ciphertext, with the encryption noise precomputed offline)::

    python examples/secure_registration.py --packed
"""

from __future__ import annotations

import argparse
import random

import numpy as np

from repro.core import (
    DubheConfig,
    RegistryCodebook,
    SecureRegistrationRound,
    participation_probabilities,
)
from repro.crypto import KeyAgent
from repro.data import EMDTargetPartitioner, half_normal_class_proportions


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Secure registration walk-through")
    parser.add_argument("--packed", action="store_true",
                        help="ship packed ciphertexts with precomputed noise "
                             "and batched client encryption")
    args = parser.parse_args(argv)

    n_clients, k = 30, 6
    global_dist = half_normal_class_proportions(10, 10.0)
    partition = EMDTargetPartitioner(n_clients, 64, 1.5, seed=0).partition(global_dist)
    distributions = partition.client_distributions()

    config = DubheConfig(
        num_classes=10, reference_set=(1, 2, 10),
        thresholds={1: 0.7, 2: 0.1, 10: 0.0},
        participants_per_round=k, key_size=256,
    )

    # ------------------------------------------------------------ the protocol
    agent = KeyAgent(key_size=config.key_size, rng=random.Random(0))
    if args.packed:
        # noise is precomputed, so online encryption is GIL-bound Python —
        # sequential is the honest executor here (see repro.crypto.batch)
        protocol = SecureRegistrationRound(config, agent=agent, packed=True,
                                           precompute_noise=True)
    else:
        protocol = SecureRegistrationRound(config, agent=agent)
    streamed = protocol.run_stream(distributions)
    overall, registrations, stats = (streamed.overall, streamed.registration,
                                     streamed.stats)

    print(f"Secure registration round ({'packed' if args.packed else 'per-component'} "
          f"ciphertexts)")
    print(f"  clients registered     : {len(registrations)}")
    print(f"  registry length        : {len(overall)} slots")
    print(f"  messages exchanged     : {stats.messages} "
          f"(per client: upload, server receipt, sync back)")
    print(f"  plaintext uploaded     : {stats.plaintext_bytes / 1024:.2f} KB")
    print(f"  ciphertext moved       : {stats.ciphertext_bytes / 1024:.2f} KB")
    print(f"  encryption time        : {stats.encrypt_seconds:.3f} s "
          f"(all clients)")
    if stats.noise_precompute_seconds:
        print(f"  noise precompute       : {stats.noise_precompute_seconds:.3f} s "
              f"(offline, between rounds)")
    print(f"  decryption time        : {stats.decrypt_seconds:.3f} s")

    # -------------------------------------------------- what the clients learn
    codebook = RegistryCodebook(config)
    print("\nDecrypted overall registry (what every client learns):")
    for entry in codebook.describe(np.round(overall), max_entries=8):
        print(f"  category {entry['category']!s:<12} ({entry['block']} dominating): "
              f"{entry['count']:.0f} clients")

    probabilities = participation_probabilities(
        codebook, registrations, np.round(overall), config.participants_per_round
    )
    print("\nEach client's self-computed participation probability (first 10):")
    for client_id, p in enumerate(probabilities[:10]):
        category = codebook.category_of(int(registrations.indices[client_id])).classes
        print(f"  client {client_id:>2} (category {category!s:<10}): P = {p:.3f}")

    # -------------------------------------------- §6.4-style overhead summary
    # every message carries one registry's ciphertexts, so the round's own
    # stats divide down to the per-vector figures the paper reports
    n = len(registrations)
    ciphertext = stats.ciphertext_bytes / stats.messages
    plaintext = stats.plaintext_bytes / n
    print(f"\nPer-registry overhead at {config.key_size} bits (§6.4):")
    print(f"  plaintext  : {plaintext:.0f} B")
    print(f"  ciphertext : {ciphertext:.0f} B ({ciphertext / plaintext:.1f}x)")
    print(f"  encrypt    : {stats.encrypt_seconds / n * 1e3:.2f} ms per client")
    print(f"  decrypt    : {stats.decrypt_seconds * 1e3:.2f} ms (once, the aggregate)")

if __name__ == "__main__":
    main()
