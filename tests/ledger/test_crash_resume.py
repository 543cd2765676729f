"""Crash-safety integration tests: SIGKILL a recording run, then resume it.

The ledger's core promise is that a killed process loses at most the round
in flight.  These tests exercise it for real: a child process records a run
into a ledger, the test kills it (SIGKILL — no cleanup, no atexit) once
enough rounds are durably committed, then resumes from the surviving file
and asserts the completed trajectory is bit-identical to an uninterrupted
run of the same configuration.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.core.config import TransportConfig
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.ledger import LedgerError, RunLedger, RunRecipe
from repro.transport import TransportClient
from repro.transport import client as client_module

TOTAL_ROUNDS = 8
KILL_AFTER = 2  # committed rounds to wait for before killing

RECIPE = RunRecipe("repro.ledger.recipes:federation",
                   {"n_clients": 12, "participants": 3, "seed": 0})

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

_CHILD = textwrap.dedent("""
    import json, sys, time
    from repro.federated.simulation import FederatedConfig, FederatedSimulation
    from repro.ledger import RunRecipe

    ledger_path, recipe_json, config_json = sys.argv[1:4]
    recipe = RunRecipe.from_dict(json.loads(recipe_json))
    config = FederatedConfig(ledger_path=ledger_path,
                             **json.loads(config_json))
    sim = FederatedSimulation(config=config, recipe=recipe, **recipe.build())
    # the pause after each commit gives the test a window to SIGKILL this
    # process mid-run; it never changes what gets recorded
    sim.run(progress=lambda record: time.sleep(0.1))
""")


def spawn_recorder(ledger_path, **config_kwargs):
    config = dict(rounds=TOTAL_ROUNDS, seed=0)
    config.update(config_kwargs)
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, ledger_path,
         json.dumps(RECIPE.to_dict()), json.dumps(config)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def wait_for_rounds(ledger_path, child, minimum, timeout=120.0):
    """Poll the ledger until *minimum* rounds are durably committed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if child.poll() is not None:
            raise AssertionError(
                "recorder exited early: "
                + child.stderr.read().decode(errors="replace"))
        try:
            with RunLedger(ledger_path, create=False) as ledger:
                info = ledger.run()
                if info.rounds_committed >= minimum:
                    return info.run_id
        except LedgerError:
            pass  # ledger (or first run row) not created yet
        time.sleep(0.01)
    raise AssertionError(f"no {minimum} committed rounds within {timeout}s")


def kill_group(child, sig=signal.SIGKILL):
    try:
        os.killpg(os.getpgid(child.pid), sig)
    except ProcessLookupError:
        pass
    child.wait(timeout=30)
    if child.stderr is not None:
        child.stderr.close()


def uninterrupted_run(**config_kwargs):
    config = dict(rounds=TOTAL_ROUNDS, seed=0)
    config.update(config_kwargs)
    with FederatedSimulation(config=FederatedConfig(**config),
                             **RECIPE.build()) as sim:
        history = sim.run()
        return history, sim.server.global_state()


def resume(ledger_path, run_id, **config_kwargs):
    config = dict(rounds=TOTAL_ROUNDS, seed=0, ledger_path=ledger_path,
                  run_mode="resume", replay_source_run_id=run_id)
    config.update(config_kwargs)
    with FederatedSimulation(config=FederatedConfig(**config), recipe=RECIPE,
                             **RECIPE.build()) as sim:
        history = sim.run()
        return history, sim.server.global_state()


@pytest.mark.parametrize("executor_mode", ["sequential", "vectorized"])
def test_sigkill_mid_run_then_resume_bit_identical(tmp_path, executor_mode):
    ledger_path = str(tmp_path / "runs.db")
    child = spawn_recorder(ledger_path, executor_mode=executor_mode)
    try:
        run_id = wait_for_rounds(ledger_path, child, KILL_AFTER)
    finally:
        kill_group(child)

    with RunLedger(ledger_path, create=False) as ledger:
        info = ledger.run(run_id)
        committed = info.rounds_committed
        assert KILL_AFTER <= committed < TOTAL_ROUNDS  # genuinely interrupted
        assert info.status == "running"  # the kill never reached finish_run
        ledger.rounds(run_id)  # the surviving prefix is contiguous and intact

    resumed, resumed_state = resume(ledger_path, run_id,
                                    executor_mode=executor_mode)
    reference, reference_state = uninterrupted_run(
        executor_mode=executor_mode)

    assert len(resumed) == TOTAL_ROUNDS
    np.testing.assert_array_equal(resumed.accuracies(),
                                  reference.accuracies())
    for key in reference_state:
        np.testing.assert_array_equal(resumed_state[key],
                                      reference_state[key])
    with RunLedger(ledger_path, create=False) as ledger:
        final = ledger.run(run_id)
        assert final.status == "completed"
        assert final.rounds_committed == TOTAL_ROUNDS


_SOCKET_CHILD = textwrap.dedent("""
    import json, sys, time
    from repro.core.config import TransportConfig
    from repro.federated.simulation import FederatedConfig, FederatedSimulation
    from repro.ledger import RunRecipe

    ledger_path, recipe_json, port, rounds = sys.argv[1:5]
    recipe = RunRecipe.from_dict(json.loads(recipe_json))
    config = FederatedConfig(
        rounds=int(rounds), seed=0, ledger_path=ledger_path,
        transport=TransportConfig(kind="socket", port=int(port),
                                  round_timeout=60.0, connect_timeout=60.0))
    sim = FederatedSimulation(config=config, recipe=recipe, **recipe.build())
    # the pause after each commit gives the test a window to SIGKILL this
    # process mid-run; it never changes what gets recorded
    sim.run(progress=lambda record: time.sleep(0.25))
""")


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def spawn_socket_recorder(ledger_path, port):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen(
        [sys.executable, "-c", _SOCKET_CHILD, ledger_path,
         json.dumps(RECIPE.to_dict()), str(port), str(TOTAL_ROUNDS)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def test_sigkill_socket_server_fleet_reconnects_resume_bit_identical(
        tmp_path, monkeypatch):
    """SIGKILL the *server* of a live socket federation, restart, resume.

    The worst-case production crash: the aggregation server dies mid-round
    with a fleet of remote clients attached.  A new server process resumes
    from the ledger's last committed round on the same port; the orphaned
    clients reconnect (capped, jittered backoff), answer the replayed
    ``SelectionNotice`` from their delta cache or by retraining, and the
    completed trajectory is bit-identical to a run that never crashed.
    """
    reference, reference_state = uninterrupted_run()

    ledger_path = str(tmp_path / "runs.db")
    port = free_port()
    donor = FederatedSimulation(config=FederatedConfig(rounds=TOTAL_ROUNDS,
                                                       seed=0),
                                **RECIPE.build())
    # a wide reconnect window (~25s of capped backoff) so the fleet
    # outlives the server's death *and* the replacement's startup
    monkeypatch.setattr(client_module, "RECONNECT_RETRIES", 15)
    monkeypatch.setattr(client_module, "RECONNECT_BACKOFF", 0.1)
    peers, threads = [], []
    for client_id in range(RECIPE.kwargs["n_clients"]):
        peer = TransportClient(
            donor.client(client_id), donor.server.new_client_model,
            "127.0.0.1", port)
        thread = threading.Thread(target=peer.run, daemon=True)
        peers.append(peer)
        threads.append(thread)

    child = spawn_socket_recorder(ledger_path, port)
    try:
        for thread in threads:
            thread.start()
        run_id = wait_for_rounds(ledger_path, child, KILL_AFTER)
    finally:
        kill_group(child)  # no cleanup, no Shutdown frames: sockets just die

    with RunLedger(ledger_path, create=False) as ledger:
        info = ledger.run(run_id)
        assert KILL_AFTER <= info.rounds_committed < TOTAL_ROUNDS
        assert info.status == "running"

    # "restart the server": a new process-equivalent simulation resumes from
    # the ledger on the same port while the orphaned fleet is mid-backoff
    config = FederatedConfig(
        rounds=TOTAL_ROUNDS, seed=0, ledger_path=ledger_path,
        run_mode="resume", replay_source_run_id=run_id,
        transport=TransportConfig(kind="socket", port=port,
                                  round_timeout=60.0, connect_timeout=60.0))
    with FederatedSimulation(config=config, recipe=RECIPE,
                             **RECIPE.build()) as sim:
        resumed = sim.run()
        resumed_state = sim.server.global_state()
    donor.close()

    for thread in threads:  # the resume's close() broadcast Shutdown
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "client thread leaked past shutdown"

    assert sum(peer.reconnects for peer in peers) > 0, (
        "no client ever reconnected — the crash was not observed over TCP")
    for peer in peers:
        assert peer.last_error is None, peer.last_error

    assert len(resumed) == TOTAL_ROUNDS
    np.testing.assert_array_equal(resumed.accuracies(),
                                  reference.accuracies())
    for key in reference_state:
        np.testing.assert_array_equal(resumed_state[key],
                                      reference_state[key])
    with RunLedger(ledger_path, create=False) as ledger:
        final = ledger.run(run_id)
        assert final.status == "completed"
        assert final.rounds_committed == TOTAL_ROUNDS


def test_verify_after_crash_resume(tmp_path):
    """The resumed run's full record (pre- and post-kill rounds) verifies."""
    ledger_path = str(tmp_path / "runs.db")
    child = spawn_recorder(ledger_path)
    try:
        run_id = wait_for_rounds(ledger_path, child, KILL_AFTER)
    finally:
        kill_group(child)
    resume(ledger_path, run_id)

    config = FederatedConfig(rounds=TOTAL_ROUNDS, seed=0,
                             ledger_path=ledger_path, run_mode="verify",
                             replay_source_run_id=run_id)
    with FederatedSimulation(config=config, recipe=RECIPE,
                             **RECIPE.build()) as sim:
        sim.run()
        report = sim.ledger_session.report
    assert report.ok()
    assert report.rounds_checked == TOTAL_ROUNDS
