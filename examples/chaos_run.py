#!/usr/bin/env python
"""Chaos smoke: seeded wire faults over real sockets, reproducibly.

Interposes the ``ChaosProxy`` between a localhost federation and its
transport server and asserts the two headline contracts of the chaos
design end to end:

* **zero-fault identity** — an *empty* ``NetworkSpec`` still routes every
  byte through the proxy, and the run reproduces the in-process reference
  exactly (same cohorts, same accuracies, ``np.array_equal`` on every
  parameter of the final global model);
* **seeded determinism** — a scenario that one-way-partitions a selected
  client is repeated ``--repeats`` times, and every repeat must produce
  byte-identical failure records (the same client fails the same rounds
  for the same cause) and an identical proxy event stream.

Run it with::

    python examples/chaos_run.py
    python examples/chaos_run.py --clients 8 --rounds 3 --repeats 5

Used as the CI chaos-smoke gate (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import threading

import numpy as np

from repro import FederatedConfig, Session
from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.scenarios import NetworkSpec, ScenarioSpec
from repro.transport import TransportClient

RECIPE_TARGET = "repro.ledger.recipes:federation"


def make_session(args: argparse.Namespace, transport=None,
                 scenario=None) -> Session:
    config = FederatedConfig(
        rounds=args.rounds, eval_every=1, seed=0,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
        transport=transport, scenario=scenario,
    )
    return Session(config).with_recipe(
        RECIPE_TARGET, n_clients=args.clients,
        participants=args.participants,
        samples_per_client=args.samples, seed=0)


def start_clients(donor, host, port, n_clients):
    peers, threads = [], []
    for client_id in range(n_clients):
        peer = TransportClient(donor.client(client_id),
                               donor.server.new_client_model, host, port)
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        peers.append(peer)
        threads.append(thread)
    return peers, threads


def join_all(threads, timeout=30.0):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "client thread leaked past shutdown"


def run_through_proxy(args: argparse.Namespace, scenario, donor,
                      round_timeout=60.0, heartbeat_interval=10.0):
    """One socket run with the chaos proxy interposed by *scenario*."""
    session = make_session(args, TransportConfig(
        kind="socket", round_timeout=round_timeout, connect_timeout=15.0,
        heartbeat_interval=heartbeat_interval), scenario=scenario)
    simulation = session.build()
    host, port = simulation.transport.start()
    proxy = simulation.transport.proxy
    assert proxy is not None, "a NetworkSpec must interpose the chaos proxy"
    peers, threads = start_clients(donor, host, port, args.clients)
    try:
        history = simulation.run()
        state = simulation.server.global_state()
        events = list(proxy.events)
    finally:
        session.close()
    join_all(threads)
    return history, state, events


def run_zero_fault_identity(args: argparse.Namespace) -> None:
    print(f"zero-fault identity: {args.clients} clients, "
          f"{args.rounds} rounds, every byte through the proxy")
    reference = make_session(args)
    ref_history = reference.run().history
    ref_state = reference.simulation.server.global_state()
    reference.close()

    donor = make_session(args)
    donor_sim = donor.build()
    history, state, events = run_through_proxy(
        args, ScenarioSpec(network=NetworkSpec()), donor_sim)
    donor.close()

    assert events == [], f"an empty NetworkSpec induced faults: {events}"
    assert len(history) == len(ref_history) == args.rounds
    for record, ref_record in zip(history.records, ref_history.records):
        assert record.selected_clients == ref_record.selected_clients
        assert record.test_accuracy == ref_record.test_accuracy
        assert record.failures == {}
        print(f"  round {record.round_index}: accuracy "
              f"{record.test_accuracy:.3f} (== in-process)")
    for name in ref_state:
        assert np.array_equal(state[name], ref_state[name]), (
            f"proxied run diverged from in-process at parameter {name!r}")
    print(f"  OK: bit-identical final model across "
          f"{len(ref_state)} parameters")


def run_deterministic_chaos(args: argparse.Namespace) -> None:
    # learn a client the selector actually picks, then cut its uplink:
    # its deltas are discarded on the wire, every selected round records
    # the same partial-round failure — identically on every repeat
    probe = make_session(args)
    victim = probe.run().history.records[0].selected_clients[0]
    probe.close()
    scenario = ScenarioSpec(
        network=NetworkSpec(partitions={victim: "to_server"}),
        seed=args.chaos_seed)
    print(f"seeded chaos: partitioning client {victim} to_server, "
          f"{args.repeats} repeats (seed {args.chaos_seed})")

    runs = []
    for repeat in range(args.repeats):
        donor = make_session(args)
        donor_sim = donor.build()
        # heartbeats off: probe frames would shift the proxy's per-round
        # frame ordinals with wall-clock timing
        history, _, events = run_through_proxy(
            args, scenario, donor_sim, round_timeout=args.deadline,
            heartbeat_interval=0.0)
        donor.close()
        failures = [(r.round_index, dict(r.failures), r.actual_clients,
                     r.aggregation_skipped) for r in history.records]
        print(f"  repeat {repeat}: failures "
              f"{[f[1] for f in failures]}, {len(events)} proxy events")
        runs.append((failures, events))

    first = runs[0]
    for repeat, other in enumerate(runs[1:], start=1):
        assert other == first, (
            f"repeat {repeat} diverged from repeat 0:\n{other}\n!=\n{first}")
    failures, events = first
    assert failures[0][1].get(victim) == "straggler", (
        f"partitioned client should straggle round 0: {failures[0][1]}")
    assert any(client == victim and kind == "partition"
               for _, client, _, kind in events), events
    print(f"  OK: {args.repeats} repeats byte-identical "
          f"({len(events)} induced faults each)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--participants", type=int, default=3)
    parser.add_argument("--samples", type=int, default=12,
                        help="training samples per client")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3,
                        help="identical-failure-record repeats to demand")
    parser.add_argument("--deadline", type=float, default=2.0,
                        help="round deadline for the partitioned phase")
    parser.add_argument("--chaos-seed", type=int, default=11)
    args = parser.parse_args()

    run_zero_fault_identity(args)
    run_deterministic_chaos(args)
    print("chaos smoke passed")


if __name__ == "__main__":
    main()
