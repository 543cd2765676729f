#!/usr/bin/env python
"""Service-layer smoke: a federated run over real localhost TCP sockets.

Starts the asyncio transport server, connects one ``TransportClient`` per
federation member over loopback, and drives a full run through
``repro.api.Session``.  Two contracts are asserted end to end:

* **bit-identity** — the fault-free socket run reproduces the in-process
  sequential run exactly (same selected cohorts, same accuracies, and
  ``np.array_equal`` on every parameter of the final global model);
* **real partial rounds** — with ``--straggler``, one client is delayed past
  the round deadline for real (no fault injector), and the resulting round
  record must show a ``"straggler"`` failure, a reduced actual cohort and
  an actual-population bias, exactly like the simulated fault path.

Run it with::

    python examples/transport_run.py
    python examples/transport_run.py --clients 8 --rounds 3 --straggler

Used as the CI transport-smoke gate (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import threading

import numpy as np

from repro import FederatedConfig, Session
from repro.federated.client import LocalTrainingConfig
from repro.transport import TransportClient

RECIPE_TARGET = "repro.ledger.recipes:federation"


def make_session(args: argparse.Namespace) -> Session:
    config = FederatedConfig(
        rounds=args.rounds, eval_every=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
    )
    return Session(config).with_recipe(
        RECIPE_TARGET, n_clients=args.clients,
        participants=args.participants,
        samples_per_client=args.samples, seed=0)


def start_clients(donor, host, port, n_clients, delays=None):
    """One client thread per federation member, replicas seeded from *donor*
    (an identically-built in-process simulation that never runs)."""
    peers, threads = [], []
    for client_id in range(n_clients):
        delay = (delays or {}).get(client_id, 0.0)
        peer = TransportClient(
            donor.client(client_id), donor.server.new_client_model,
            host, port, delay=delay, delay_round=1 if delay else None,
        )
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        peers.append(peer)
        threads.append(thread)
    return peers, threads


def join_all(threads, timeout=30.0):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "client thread leaked past shutdown"


def run_fault_free(args: argparse.Namespace) -> None:
    print(f"fault-free: {args.clients} clients, {args.rounds} rounds, "
          f"{args.participants} participants/round")
    reference = make_session(args)
    ref_history = reference.run().history
    ref_state = reference.simulation.server.global_state()

    donor = make_session(args)
    donor_sim = donor.build()
    session = make_session(args).with_transport(
        kind="socket", round_timeout=args.round_timeout)
    simulation = session.build()
    host, port = simulation.transport.start()
    print(f"  server listening on {host}:{port}")
    peers, threads = start_clients(donor_sim, host, port, args.clients)
    try:
        history = simulation.run()
        state = simulation.server.global_state()
    finally:
        session.close()
    join_all(threads)
    donor.close()
    reference.close()

    assert len(history) == len(ref_history) == args.rounds
    for record, ref_record in zip(history.records, ref_history.records):
        assert record.selected_clients == ref_record.selected_clients, (
            f"round {record.round_index}: cohort diverged")
        assert record.test_accuracy == ref_record.test_accuracy, (
            f"round {record.round_index}: accuracy diverged")
        assert record.failures == {}
        print(f"  round {record.round_index}: cohort "
              f"{record.selected_clients}, accuracy "
              f"{record.test_accuracy:.3f} (== in-process)")
    for name in ref_state:
        assert np.array_equal(state[name], ref_state[name]), (
            f"socket run diverged from in-process at parameter {name!r}")
    trained = sum(1 for peer in peers if peer.rounds_trained)
    print(f"  OK: bit-identical final model across "
          f"{len(ref_state)} parameters; {trained} clients trained")


def run_straggler(args: argparse.Namespace) -> None:
    # learn round 1's deterministic cohort from an in-process replica,
    # then make its first member miss the socket deadline for real
    probe = make_session(args)
    straggler = probe.run().history.records[1].selected_clients[0]
    probe.close()
    print(f"straggler: delaying client {straggler} by "
          f"{args.delay:.1f}s against a {args.deadline:.1f}s round deadline")

    donor = make_session(args)
    donor_sim = donor.build()
    session = make_session(args).with_transport(
        kind="socket", round_timeout=args.deadline, connect_timeout=15.0)
    simulation = session.build()
    host, port = simulation.transport.start()
    peers, threads = start_clients(donor_sim, host, port, args.clients,
                                   delays={straggler: args.delay})
    try:
        history = simulation.run(rounds=2)
    finally:
        session.close()
    join_all(threads)
    donor.close()

    clean, partial = history.records
    assert clean.failures == {}, f"round 0 should be clean: {clean.failures}"
    assert partial.failures == {straggler: "straggler"}, (
        f"expected a straggler partial round, got {partial.failures}")
    assert straggler not in partial.actual_clients
    assert len(partial.actual_clients) == len(partial.selected_clients) - 1
    assert not partial.aggregation_skipped
    assert partial.actual_population_bias is not None
    print(f"  round 1: planned {partial.selected_clients}, aggregated "
          f"{partial.actual_clients} — client {straggler} timed out "
          f"({partial.failures[straggler]})")
    print(f"  OK: real deadline miss produced a partial round "
          f"(actual bias {partial.actual_population_bias:.4f})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--participants", type=int, default=3)
    parser.add_argument("--samples", type=int, default=12,
                        help="training samples per client")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--round-timeout", type=float, default=60.0,
                        help="fault-free phase round deadline (generous)")
    parser.add_argument("--straggler", action="store_true",
                        help="also run the injected-timeout partial round")
    parser.add_argument("--deadline", type=float, default=2.0,
                        help="straggler phase round deadline")
    parser.add_argument("--delay", type=float, default=6.0,
                        help="how late the straggling client is")
    args = parser.parse_args()

    run_fault_free(args)
    if args.straggler:
        run_straggler(args)
    print("transport smoke passed")


if __name__ == "__main__":
    main()
