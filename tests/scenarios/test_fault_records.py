"""One scenario, three back-ends, one fault story per round.

A churn + dropout + straggler scenario runs on the ``sequential`` and
``vectorized`` executors and over loopback sockets.  Every
round's planned cohort, surviving cohort, failure causes (in recorded
order), simulated delay and skip flag must be equal on all three and equal to
the pinned digests below, and the final global states must be equal.  The
socket leg is the one where injected faults are resolved on the server side:
failed clients are never sent a selection notice.

The scenario (seed 7, six clients, K = 3, five rounds) covers every
mid-round path: a late joiner (``not_joined``), dropouts, a straggler past
the 3.0 s deadline, surviving stragglers that set the round delay, and a
round whose whole cohort fails, so aggregation is skipped.  A second,
all-dropout scenario checks that a socket round whose planned failures
leave nobody to dispatch waits for no peer.
"""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro import FederatedConfig, Session
from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.scenarios import ChurnSpec, DropoutSpec, ScenarioSpec, StragglerSpec
from repro.transport import TransportClient

RECIPE = dict(n_clients=6, participants=3, samples_per_client=12, seed=0)
ROUNDS = 5
SCENARIO = ScenarioSpec(
    churn=ChurnSpec(joins={2: 3}),
    stragglers=StragglerSpec(probability=0.4, mean_delay=2.0, deadline=3.0),
    dropouts=DropoutSpec(probability=0.3),
    seed=7,
)

#: SHA-256 of each round's record, see :func:`record_digest`
PINNED = [
    "6af348944c906d237001a122a2fd52b7b2e30305b9fa1311d2b5e2f9e3a1a226",
    "158f87a56a8adb1ec213f924ef861b4e1731ff1e27cd25207eb7dc3db6f9e8d5",
    "5bb1c706f2d921fd86e32d63d507b0966d2cc80b7eaa2825a052aa276b1b2ef9",
    "e4b46e9159f4d15f453a2d14bc909fad24974ca1f603c1ac1764081fa9d76e0a",
    "c0e35cbb22234823999e3d5bd34e09634d36c40c3f94117fced0e0fe9f3f65b7",
]


def make_session(executor_mode="sequential", transport=None,
                 scenario=SCENARIO, rounds=ROUNDS):
    config = FederatedConfig(
        rounds=rounds, eval_every=1, seed=0, executor_mode=executor_mode,
        local=LocalTrainingConfig(batch_size=4, local_epochs=1),
        scenario=scenario, transport=transport,
    )
    return Session(config).with_recipe("repro.ledger.recipes:federation",
                                       **RECIPE)


def story(record) -> tuple:
    """The fields a round's fault story consists of, failure order included."""
    return (record.selected_clients, record.actual_clients,
            list(record.failures.items()), record.round_delay,
            record.aggregation_skipped)


def record_digest(record) -> str:
    return hashlib.sha256(repr(story(record)).encode()).hexdigest()


def run_in_process(mode):
    with make_session(mode) as session:
        history = session.run().history
        return history.records, session.simulation.server.global_state()


def run_over_sockets():
    donor_session = make_session()
    donor = donor_session.build()
    session = make_session(transport=TransportConfig(kind="socket",
                                                     round_timeout=30.0))
    simulation = session.build()
    host, port = simulation.transport.start()
    threads = []
    for client_id in range(RECIPE["n_clients"]):
        peer = TransportClient(donor.client(client_id),
                               donor.server.new_client_model, host, port)
        thread = threading.Thread(target=peer.run, daemon=True)
        thread.start()
        threads.append(thread)
    try:
        records = session.run().history.records
        state = simulation.server.global_state()
    finally:
        session.close()
        donor_session.close()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "client thread leaked past shutdown"
    return records, state


@pytest.fixture(scope="module")
def reference():
    return run_in_process("sequential")


def test_the_scenario_reaches_every_fault_path(reference):
    records, _ = reference
    causes = {cause for record in records for cause in record.failures.values()}
    assert causes == {"not_joined", "dropout", "straggler"}
    assert any(record.aggregation_skipped for record in records)
    assert any(record.round_delay > 0 for record in records)


def test_sequential_records_match_the_pinned_digests(reference):
    records, _ = reference
    assert [record_digest(record) for record in records] == PINNED


@pytest.mark.parametrize("backend", ["vectorized", "socket"])
def test_every_backend_tells_the_same_story(reference, backend):
    ref_records, ref_state = reference
    records, state = (run_over_sockets() if backend == "socket"
                      else run_in_process(backend))
    assert [story(r) for r in records] == [story(r) for r in ref_records]
    assert [record_digest(record) for record in records] == PINNED
    assert state.keys() == ref_state.keys()
    for name in ref_state:
        assert np.array_equal(state[name], ref_state[name]), name


def test_a_socket_round_that_fails_whole_needs_no_peer():
    # every selected client drops out, so the server dispatches nothing and
    # must not wait for anyone to register: the round is skipped, as in process
    everyone_drops = ScenarioSpec(dropouts=DropoutSpec(1.0))
    with make_session(scenario=everyone_drops, rounds=2) as session:
        expected = session.run().history.records
    session = make_session(scenario=everyone_drops, rounds=2,
                           transport=TransportConfig(kind="socket",
                                                     connect_timeout=2.0))
    try:
        start = time.perf_counter()
        records = session.run().history.records
        elapsed = time.perf_counter() - start
    finally:
        session.close()
    assert all(record.aggregation_skipped for record in records)
    assert [story(r) for r in records] == [story(r) for r in expected]
    assert elapsed < 1.0
