#!/usr/bin/env python
"""Run ledger walkthrough: record a run, kill it, resume it, verify it.

The run ledger (:mod:`repro.ledger`) makes long federated runs durable and
auditable: every completed round is committed to a SQLite file together with
a checksummed global-model checkpoint, so a crashed run loses at most the
round in flight, and any finished run can later be re-executed and checked
bit-for-bit.  This example demonstrates the whole lifecycle in one process:

1. record a short LIVE run (interrupted on purpose partway through);
2. RESUME it from the last committed checkpoint and run it to completion;
3. VERIFY the completed run — re-execute every round and assert selections
   and metrics match the record exactly, including on a different executor
   back-end;
4. show that the resumed trajectory is bit-identical to an uninterrupted
   run of the same configuration.

Run it with::

    python examples/ledger_run.py
    python examples/ledger_run.py --ledger /tmp/runs.db --rounds 8

The same lifecycle is scriptable from the shell via
``python -m repro.ledger {list,show,verify,resume}``.
"""

from __future__ import annotations

import argparse
import os
import tempfile

import numpy as np

from repro.api import Session
from repro.federated import FederatedConfig, FederatedSimulation
from repro.ledger import RunLedger, RunRecipe


def build_simulation(recipe: RunRecipe, **config_kwargs) -> FederatedSimulation:
    """A simulation built from the recipe, so resume/verify can rebuild it."""
    return Session(FederatedConfig(**config_kwargs)).with_recipe(recipe).build()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ledger", default=None,
                        help="ledger file (default: a temporary one)")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--interrupt-after", type=int, default=3,
                        help="rounds to record before the simulated crash")
    args = parser.parse_args()

    path = args.ledger or os.path.join(tempfile.mkdtemp(), "runs.db")
    recipe = RunRecipe("repro.ledger.recipes:federation",
                       {"n_clients": 24, "participants": 6,
                        "selector": "dubhe", "seed": 0})
    base = dict(rounds=args.rounds, seed=0, ledger_path=path)

    print(f"[1/4] recording {args.interrupt_after} of {args.rounds} rounds, "
          f"then 'crashing' (ledger: {path})")
    with build_simulation(recipe, run_name="ledger-demo", **base) as sim:
        sim.run(args.interrupt_after)
        run_id = sim.ledger_session.run_id
    with RunLedger(path, create=False) as ledger:
        print(f"      committed {ledger.round_count(run_id)} round(s) "
              f"of run {run_id}")

    print(f"[2/4] resuming run {run_id} to completion")
    with build_simulation(recipe, run_mode="resume",
                          replay_source_run_id=run_id, **base) as sim:
        resumed = sim.run()
    print(f"      final accuracy {resumed.final_accuracy():.4f} after "
          f"{len(resumed)} rounds")

    print("[3/4] verifying the recorded run (sequential, then vectorized)")
    for executor_mode in ("sequential", "vectorized"):
        with build_simulation(recipe, run_mode="verify",
                              replay_source_run_id=run_id,
                              executor_mode=executor_mode, **base) as sim:
            sim.run()
            report = sim.ledger_session.report
        print(f"      [{executor_mode}] {report.format()}")

    print("[4/4] comparing against an uninterrupted run")
    with build_simulation(recipe, **dict(base, ledger_path=None)) as sim:
        uninterrupted = sim.run()
    identical = np.array_equal(np.asarray(resumed.accuracies()),
                               np.asarray(uninterrupted.accuracies()))
    print(f"      resumed accuracies bit-identical to uninterrupted: "
          f"{identical}")
    if not identical:
        raise SystemExit("resume determinism violated")


if __name__ == "__main__":
    main()
