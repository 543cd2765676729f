"""The five workloads of the end-to-end benchmark.

Every workload is a closed loop with one driver: the next op starts only
after the previous one finished.  A workload builds its inputs from the seed
alone (population, partition, selector RNG, model init and the key agent's
``random.Random``), so the same seed gives the same inputs, and the library
only ever receives those generated inputs.

A run is made of *blocks*: a block is a fixed number of ops on fixed inputs,
so blocks of one run do the same work and their rates can be compared and
their median reported.  Shape parameters (population sizes, key sizes,
model, cohort) are fixed here; ``--smoke`` shrinks them so the test finishes
in seconds.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from repro import (FederatedConfig, Session, make_uniform_test_set,
                   quick_federation)
from repro.core.config import DubheConfig, TransportConfig
from repro.core.registry import RegistryCodebook
from repro.core.secure import SecureRegistrationRound
from repro.core.secure_selector import SecureDubheSelector
from repro.core.selectors import DubheSelector
from repro.crypto.keyagent import KeyAgent
from repro.federated.client import LocalTrainingConfig
from repro.ledger.store import LedgerError, RunLedger
from repro.nn.models import MLP
from repro.transport import TransportClient
from repro.transport.messages import (ModelDelta, decode_message,
                                      encode_message)

from e2e_tracing import NO_OP, Tracer

__all__ = ["BlockResult", "Driver", "WORKLOAD_CLASSES"]

#: Dirichlet concentration of the synthetic non-IID population (the value
#: bench_registry.py uses: most clients have 1-2 dominating classes)
DIRICHLET_ALPHA = 0.3

#: temporary ledgers live inside the checkout, never in /tmp
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


def group1_config(participants: int, tries: int, key_size: int = 128,
                  batch: int = 64) -> DubheConfig:
    """The paper's 10-class group-1 codebook (G = (1,2,10), length 56)."""
    return DubheConfig(
        num_classes=10, reference_set=(1, 2, 10),
        thresholds={1: 0.7, 2: 0.1, 10: 0.0},
        participants_per_round=participants, tentative_selections=tries,
        key_size=key_size, registration_batch_size=batch)


def population(n: int, seed: int) -> np.ndarray:
    """N skewed 10-class label distributions, a function of (n, seed) only."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(10, DIRICHLET_ALPHA), size=n)


def states_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[name], b[name]) for name in a)


@dataclass
class BlockResult:
    """What one block measured."""

    wall: float                      #: seconds of timed region
    ops: int                         #: ops attempted
    failed: int                      #: ops that failed a check
    latencies: list = field(default_factory=list)   #: seconds per op sample
    net_wall: float = 0.0            #: wall net of steal (set by the harness)


class Driver:
    """Times ops one at a time and tells the tracer which op is in flight."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.next_op = 0

    def run(self, function, *args):
        """Run one op; returns ``(seconds, result)``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.current_op = self.next_op
        with tracer.span("bench.op") if tracer is not None else nullcontext():
            start = perf_counter()
            result = function(*args)
            seconds = perf_counter() - start
        if tracer is not None:
            tracer.current_op = NO_OP
        self.next_op += 1
        return seconds, result


# -- wrapping the layers' public functions (traced runs only) --------------------

def instrument_crypto(tracer: Tracer) -> None:
    from repro.core import secure
    from repro.crypto import batch, keyagent, packing, paillier, vector

    def vectors(result, *args, **kwargs):
        produced = result if isinstance(result, list) else [result]
        yield "crypto.encrypt_vectors", len(produced)
        yield "crypto.encrypt_ciphertexts", sum(
            len(v.ciphertexts) for v in produced)

    tracer.wrap(keyagent, "generate_keypair", "crypto.keygen")
    tracer.wrap(paillier.NoisePool, "refill", "crypto.noise_refill",
                count=lambda _, pool, n: [("crypto.noise_terms", n)])
    tracer.wrap(batch.BatchCryptoExecutor, "encrypt_many", "crypto.encrypt",
                count=vectors)
    # SecureClient encrypts through this name, not through the executor
    tracer.wrap(secure, "encrypt_one", "crypto.encrypt", count=vectors)
    tracer.wrap(secure.SecureAggregationServer, "receive", "crypto.fold",
                count=lambda *_: [("crypto.fold_vectors", 1)])
    tracer.wrap(secure.SecureAggregationServer, "aggregate", "crypto.fold",
                count=lambda _, server: [
                    ("crypto.aggregates", 1),
                    ("crypto.fold_depth_sum", server.fold_depth)])
    for cls in (packing.PackedEncryptedVector, vector.EncryptedVector):
        tracer.wrap(cls, "decrypt", "crypto.decrypt",
                    count=lambda _, vec, key: [
                        ("crypto.decrypt_ciphertexts", len(vec.ciphertexts))])


def instrument_core(tracer: Tracer) -> None:
    from repro.core import registry, secure_selector, selectors

    tracer.wrap(registry.RegistryCodebook, "register_batch",
                "core.register_batch")
    for module in (selectors, secure_selector):
        tracer.wrap(module, "participation_probabilities",
                    "core.probabilities")
        tracer.wrap(module, "multi_time_selection", "core.multitime",
                    count=lambda _, *args, **kwargs: [
                        ("core.select_tries", kwargs["tries"])])
    for cls in (selectors.DubheSelector, secure_selector.SecureDubheSelector):
        tracer.wrap(cls, "__init__", "core.selector_init")
        tracer.wrap(cls, "select", "core.select")
    tracer.wrap(selectors.DubheSelector, "refresh_registrations",
                "core.refresh")


def instrument_training(tracer: Tracer) -> None:
    from repro.data import synthetic
    from repro.federated import client, executor, server, simulation
    from repro.nn import metrics

    tracer.wrap(synthetic.SyntheticImageGenerator, "generate", "data.generate",
                count=lambda *_, **__: [("data.generate_calls", 1)])
    tracer.wrap(simulation.FederatedSimulation, "run_round", "federated.round")
    tracer.wrap(executor.LocalUpdateExecutor, "run_round",
                "federated.local_update")
    tracer.wrap(executor, "train_cohort", "nn.train_cohort")
    tracer.wrap(client.FederatedClient, "local_train", "nn.local_train")
    tracer.wrap(server.FederatedServer, "aggregate", "federated.aggregate")
    tracer.wrap(server.FederatedServer, "evaluate", "federated.evaluate")
    tracer.wrap(metrics.BatchedEvaluator, "evaluate", "nn.evaluate")


def instrument_service(tracer: Tracer) -> None:
    from repro.ledger import store
    from repro.transport import client as peer_side
    from repro.transport import server as server_side
    from repro.transport.messages import Heartbeat, HeartbeatAck

    def frames(frame, message):
        kind = ("heartbeat" if isinstance(message, (Heartbeat, HeartbeatAck))
                else "protocol")
        yield f"transport.{kind}_frames", 1
        yield f"transport.{kind}_bytes", len(frame)

    tracer.wrap(server_side.SocketTransport, "run_round",
                "transport.run_round")
    tracer.wrap(server_side.SocketTransport, "broadcast_probabilities",
                "transport.broadcast")
    tracer.wrap(server_side.SocketTransport, "on_round_complete",
                "transport.broadcast")
    # every frame either side sends is built through this name: counting
    # here is the benchmark's pass-through on the wire
    for module in (server_side, peer_side):
        tracer.wrap(module, "encode_message", "transport.encode",
                    count=frames)
    tracer.wrap(store.RunLedger, "commit_round", "ledger.commit",
                count=lambda *_, **__: [("ledger.commits", 1)])
    tracer.wrap(store, "state_to_bytes", "ledger.checkpoint_encode")
    tracer.wrap(store, "state_sha256", "ledger.checkpoint_encode")


# -- workloads -------------------------------------------------------------------

class Workload:
    """Common shape of a workload; see the module docstring for the terms."""

    name = ""
    #: how many times a run sets up before timing (the median is reported)
    setup_reps = 3
    #: True when every block starts from a freshly set-up system
    restart_each_block = False
    #: the layers whose public functions a traced run wraps
    instruments: tuple = ()

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.setup_reps = 1

    def setup(self):
        """Build inputs and system, run the first (cold) op; return the system."""
        raise NotImplementedError

    def check(self, system) -> tuple[int, int]:
        """Correctness before timing: ``(attempted, failed)`` checks."""
        raise NotImplementedError

    def block(self, system, driver: Driver) -> BlockResult:
        raise NotImplementedError

    def teardown(self, system) -> int:
        """Release the system; returns how many end-of-run checks failed."""
        return 0

    def layer_metrics(self, system, tracer: Tracer, traced_ops: set,
                      latencies: list) -> dict:
        """Per-layer figures only the workload can read (traced runs).

        *traced_ops* are the ids of the ops that ran with tracing on,
        *latencies* every op latency of the run in seconds.
        """
        return {}


class RegisterStream(Workload):
    """One block = one whole secure registration of ``clients`` clients."""

    name = "register_stream"
    instruments = (instrument_crypto, instrument_core)
    CHUNK = 64

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.clients = 128 if smoke else 256
        self.key_size = 128 if smoke else 512
        self.config = group1_config(16, 4, self.key_size, batch=self.CHUNK)
        self.ops_per_block = self.clients
        self.last_stats = None

    def _stream(self, distributions: np.ndarray, pulls: list):
        """keygen + noise + encrypt + fold + decrypt over 64-client chunks."""
        def chunks():
            for start in range(0, len(distributions), self.CHUNK):
                pulls.append(perf_counter())
                yield distributions[start:start + self.CHUNK]
            pulls.append(perf_counter())

        agent = KeyAgent(self.key_size, rng=random.Random(self.seed))
        return SecureRegistrationRound(
            self.config, packed=True, aggregation="tree",
            precompute_noise=True, agent=agent,
        ).run_stream(chunks(), total_clients=len(distributions))

    def _expected(self, distributions: np.ndarray) -> np.ndarray:
        return RegistryCodebook(self.config).register_batch(
            distributions).overall_registry()

    def setup(self):
        distributions = population(self.clients, self.seed)
        cold = self._stream(distributions[:self.CHUNK], [])
        return {"distributions": distributions, "cold": cold}

    def check(self, system):
        first = system["distributions"][:self.CHUNK]
        system["expected"] = self._expected(system["distributions"])
        ok = np.array_equal(system["cold"].overall, self._expected(first))
        return self.CHUNK, 0 if ok else self.CHUNK

    def block(self, system, driver):
        pulls: list = []
        seconds, result = driver.run(self._stream, system["distributions"],
                                     pulls)
        self.last_stats = result.stats
        ok = (np.array_equal(result.overall, system["expected"])
              and result.n_clients == self.clients)
        # a chunk's latency runs from its pull to the next pull (the last
        # pull is the stream's end), shared equally by its 64 clients
        latencies = [gap / self.CHUNK for gap in np.diff(pulls)]
        return BlockResult(seconds, self.clients,
                           0 if ok else self.clients, latencies)

    def layer_metrics(self, system, tracer, traced_ops, latencies):
        stats = self.last_stats
        tracemalloc.start()
        try:
            self._stream(system["distributions"], [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {
            "crypto.expansion_factor": stats.expansion_factor,
            "wire.bytes_per_op": stats.ciphertext_bytes / self.clients,
            "core.stream_tracemalloc_peak_mb": peak / 2**20,
        }


class SelectSecure(Workload):
    """One op = one ``SecureDubheSelector.select`` (H encrypted tries)."""

    name = "select_secure"
    instruments = (instrument_crypto, instrument_core)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.clients, participants, tries, self.key_size = (
            (16, 4, 2, 128) if smoke else (64, 16, 4, 256))
        self.config = group1_config(participants, tries, self.key_size)
        self.ops_per_block = 2 if smoke else 3

    def setup(self):
        distributions = population(self.clients, self.seed)
        selector = SecureDubheSelector(
            distributions, self.config, seed=self.seed,
            agent=KeyAgent(self.key_size, rng=random.Random(self.seed)),
            score_securely=True)
        first = selector.select(0)
        return {"distributions": distributions, "selector": selector,
                "first": first, "round": 1, "biases": [],
                "bytes_before": selector.stats.ciphertext_bytes}

    def check(self, system):
        # the plaintext selector with the same seed must pick the same cohorts
        system["reference"] = DubheSelector(
            system["distributions"], self.config, seed=self.seed)
        ok = system["reference"].select(0) == system["first"]
        return 1, 0 if ok else 1

    def block(self, system, driver):
        selector, reference = system["selector"], system["reference"]
        latencies, failed = [], 0
        for _ in range(self.ops_per_block):
            seconds, cohort = driver.run(selector.select, system["round"])
            latencies.append(seconds)
            system["biases"].append(selector.last_bias)
            failed += cohort != reference.select(system["round"])
            system["round"] += 1
        return BlockResult(sum(latencies), len(latencies), failed, latencies)

    def layer_metrics(self, system, tracer, traced_ops, latencies):
        selector = system["selector"]
        sent = selector.stats.ciphertext_bytes - system["bytes_before"]
        return {
            "crypto.expansion_factor": selector.stats.expansion_factor,
            "wire.bytes_per_op": sent / (system["round"] - 1),
            # the first block's cohorts: a function of the seed alone
            "quality.selection_emd_mean": float(np.mean(
                system["biases"][:self.ops_per_block])),
        }


class SelectScale(Workload):
    """One op = one drift epoch: a re-registration and 20 selections."""

    name = "select_scale"
    instruments = (instrument_core,)
    # first-touch page faults make single set-ups here swing several-fold
    setup_reps = 5

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.clients, participants, self.selections = (
            (2000, 50, 3) if smoke else (100_000, 1000, 20))
        self.config = group1_config(participants, 4)
        self.ops_per_block = 2 if smoke else 4
        self.sample = 200 if smoke else 1000

    def _drifted(self, system) -> np.ndarray:
        """The next epoch's input: every client's labels rotated one further."""
        return np.roll(system["distributions"], system["epoch"], axis=1)

    def _epoch(self, system, drifted: np.ndarray) -> None:
        selector, epoch = system["selector"], system["epoch"]
        selector.refresh_registrations(drifted)
        for index in range(self.selections):
            cohort = selector.select(epoch * self.selections + index)
            system["biases"].append(selector.last_bias)
        system["cohort_size"] = len(cohort)
        system["epoch"] += 1

    def setup(self):
        distributions = population(self.clients, self.seed)
        selector = DubheSelector(distributions, self.config, seed=self.seed)
        system = {"distributions": distributions, "selector": selector,
                  "epoch": 1, "biases": []}
        self._epoch(system, self._drifted(system))
        return system

    def check(self, system):
        # the batch path's indices against per-client Algorithm 1
        selector = system["selector"]
        rows = np.random.default_rng(self.seed).choice(
            self.clients, size=self.sample, replace=False)
        want = [selector.codebook.register(selector.client_distributions[r]).index
                for r in rows]
        ok = np.array_equal(selector.registration_batch.indices[rows], want)
        return self.sample, 0 if ok else self.sample

    def block(self, system, driver):
        latencies, failed = [], 0
        for _ in range(self.ops_per_block):
            seconds, _ = driver.run(self._epoch, system,
                                    self._drifted(system))
            latencies.append(seconds)
            failed += system["cohort_size"] != self.config.participants_per_round
        return BlockResult(sum(latencies), len(latencies), failed, latencies)

    def layer_metrics(self, system, tracer, traced_ops, latencies):
        # set-up epoch plus first block: a function of the seed alone
        fixed = system["biases"][:(1 + self.ops_per_block) * self.selections]
        return {"quality.selection_emd_mean": float(np.mean(fixed))}


class _Rounds(Workload):
    """Shared by the two workloads whose op is one full federated round."""

    instruments = (instrument_core, instrument_training, instrument_service)
    n_clients = participants = tries = samples = hidden = 0
    check_rounds = 0

    def _session(self, executor_mode: str = "sequential", transport=None,
                 ledger_path: Optional[str] = None) -> Session:
        """The workload's federation, a function of the seed alone."""
        seed = self.seed
        partition, generator = quick_federation(
            n_clients=self.n_clients, samples_per_client=self.samples,
            seed=seed)
        selector = DubheSelector(
            partition.client_distributions(),
            group1_config(self.participants, self.tries), seed=seed)
        config = FederatedConfig(
            rounds=1, eval_every=1, seed=seed, executor_mode=executor_mode,
            transport=transport,
            local=LocalTrainingConfig(batch_size=8, local_epochs=1,
                                      learning_rate=3e-3))
        hidden = self.hidden
        session = Session(config).with_federation(
            partition=partition, generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(hidden,), seed=seed),
            selector=selector,
            test_set=make_uniform_test_set(
                generator, samples_per_class=self.test_per_class,
                seed=seed + 1))
        if ledger_path is not None:
            session.with_ledger(ledger_path)
        return session

    @staticmethod
    def _round_failed(record) -> bool:
        return bool(record.failures or record.aggregation_skipped
                    or record.test_accuracy is None)

    def _run_rounds(self, system, driver, count: int) -> BlockResult:
        simulation = system["simulation"]
        latencies, failed = [], 0
        for _ in range(count):
            seconds, record = driver.run(simulation.run_round,
                                         system["round"])
            latencies.append(seconds)
            failed += self._round_failed(record)
            system["round"] += 1
        return BlockResult(sum(latencies), count, failed, latencies)


class TrainInproc(_Rounds):
    """One op = select, vectorized local training, FedAvg, evaluate."""

    name = "train_inproc"
    setup_reps = 1
    restart_each_block = True

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        (self.n_clients, self.participants, self.tries, self.samples,
         self.hidden, self.test_per_class, self.ops_per_block,
         self.check_rounds) = ((40, 4, 2, 16, 8, 10, 4, 3) if smoke
                               else (1000, 32, 4, 64, 32, 100, 40, 8))
        #: accuracy after the last round of each finished block
        self.final_accuracies: list = []

    def setup(self):
        session = self._session("vectorized")
        simulation = session.build()
        first = simulation.run_round(0)
        return {"session": session, "simulation": simulation, "round": 1,
                "first_failed": self._round_failed(first)}

    def check(self, system):
        # the vectorized back-end against the sequential reference, state
        # for state; this consumes the system, the timed blocks get new ones
        simulation = system["simulation"]
        for index in range(1, self.check_rounds):
            simulation.run_round(index)
        with self._session("sequential") as reference:
            history = reference.run(self.check_rounds).history
            same = (states_equal(simulation.server.global_state(),
                                 reference.simulation.server.global_state())
                    and [r.selected_clients for r in history.records]
                    == [r.selected_clients for r in simulation.history.records])
        return self.check_rounds, 0 if same else self.check_rounds

    def block(self, system, driver):
        result = self._run_rounds(system, driver, self.ops_per_block)
        result.failed += system["first_failed"]
        self.final_accuracies.append(
            system["simulation"].history.final_accuracy())
        return result

    def teardown(self, system):
        system["session"].close()
        # every block ran the same rounds on the same inputs
        return int(len(set(self.final_accuracies)) > 1)

    def layer_metrics(self, system, tracer, traced_ops, latencies):
        # the last block's system is still alive; every block did the same
        simulation = system["simulation"]
        history, cache = simulation.history, simulation.dataset_cache
        steps_per_round = self.participants * -(-self.samples // 8)
        train = tracer.durations(traced_ops).get("nn.train_cohort", 0.0)
        rounds = tracer.calls(traced_ops)["nn.train_cohort"]
        return {
            "data.cache_hit_ratio": cache.hits / (cache.hits + cache.misses),
            "federated.fallback_rounds": len(history.fallback_reasons()),
            "federated.workspace_builds": simulation.executor.workspace_builds,
            "nn.local_steps_per_s": (steps_per_round * rounds / train
                                     if train else 0.0),
            "quality.selection_emd_mean": history.mean_population_bias(),
            "quality.final_accuracy": history.final_accuracy(),
        }


class RoundSocketLedger(_Rounds):
    """One op = a full round over loopback TCP, committed to the ledger."""

    name = "round_socket_ledger"
    #: a hung round becomes a failed op, not a hung benchmark
    ROUND_TIMEOUT = 20.0
    JOIN_TIMEOUT = 30.0

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        (self.n_clients, self.participants, self.tries, self.samples,
         self.hidden, self.test_per_class, self.ops_per_block,
         self.check_rounds) = ((8, 4, 2, 16, 16, 10, 3, 3) if smoke
                               else (8, 4, 2, 16, 256, 100, 10, 10))
        self.reference_p50 = 0.0

    def setup(self):
        os.makedirs(WORK_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="ledger-", dir=WORK_DIR)
        system = {"directory": directory, "threads": [], "peers": [],
                  "round": 1}
        try:
            # the peers' replicas come from an identically built in-process
            # simulation that never runs
            system["donor"] = self._session()
            donor = system["donor"].build()
            system["session"] = self._session(
                transport=TransportConfig(kind="socket", port=0,
                                          round_timeout=self.ROUND_TIMEOUT),
                ledger_path=os.path.join(directory, "runs.db"))
            simulation = system["simulation"] = system["session"].build()
            host, port = simulation.transport.start()
            for client_id in range(self.n_clients):
                peer = TransportClient(donor.client(client_id),
                                       donor.server.new_client_model,
                                       host, port)
                thread = threading.Thread(target=peer.run, daemon=True,
                                          name=f"e2e-peer-{client_id}")
                thread.start()
                system["peers"].append(peer)
                system["threads"].append(thread)
            system["first_failed"] = self._round_failed(
                simulation.run_round(0))
        except BaseException:
            self.teardown(system)
            raise
        return system

    def _reference_to(self, system, rounds: int) -> None:
        """Advance the in-process sequential reference to *rounds* rounds."""
        if "reference" not in system:
            system["reference"] = self._session()
            system["reference"].build()
            system["reference_seconds"] = []
        reference = system["reference"].simulation
        for index in range(len(reference.history), rounds):
            start = perf_counter()
            reference.run_round(index)
            system["reference_seconds"].append(perf_counter() - start)

    def _matches_reference(self, system) -> bool:
        simulation = system["simulation"]
        reference = system["reference"].simulation
        return (states_equal(simulation.server.global_state(),
                             reference.server.global_state())
                and [r.selected_clients for r in simulation.history.records]
                == [r.selected_clients for r in reference.history.records])

    def _ledger_intact(self, system) -> bool:
        """Rounds contiguous and every checkpoint's SHA-256 verifies."""
        simulation = system["simulation"]
        run_id = simulation.ledger_session.run_id
        try:
            with RunLedger(os.path.join(system["directory"], "runs.db"),
                           create=False) as ledger:
                committed = ledger.rounds(run_id)
                for index in range(len(committed)):
                    ledger.checkpoint(run_id, index)
        except LedgerError:
            return False
        return len(committed) == len(simulation.history)

    def check(self, system):
        simulation = system["simulation"]
        failed = system["first_failed"]
        for index in range(1, self.check_rounds):
            failed += self._round_failed(simulation.run_round(index))
        system["round"] = self.check_rounds
        self._reference_to(system, self.check_rounds)
        self.reference_p50 = float(np.median(system["reference_seconds"]))
        if not (self._matches_reference(system) and self._ledger_intact(system)):
            failed = self.check_rounds
        return self.check_rounds, min(failed, self.check_rounds)

    def block(self, system, driver):
        return self._run_rounds(system, driver, self.ops_per_block)

    def _ledger_bytes(self, system) -> int:
        path = os.path.join(system["directory"], "runs.db")
        return sum(os.path.getsize(path + suffix)
                   for suffix in ("", "-wal") if os.path.exists(path + suffix))

    def teardown(self, system):
        failed = 0
        simulation = system.get("simulation")
        try:
            if simulation is not None and "reference" in system:
                # the whole run, not just the rounds checked before timing
                self._reference_to(system, len(simulation.history))
                failed += not (self._matches_reference(system)
                               and self._ledger_intact(system))
        finally:
            for key in ("session", "donor", "reference"):
                if key in system:
                    system[key].close()
            for thread in system["threads"]:
                thread.join(timeout=self.JOIN_TIMEOUT)
            failed += sum(thread.is_alive() for thread in system["threads"])
            shutil.rmtree(system["directory"], ignore_errors=True)
        return failed

    def layer_metrics(self, system, tracer, traced_ops, latencies):
        simulation = system["simulation"]
        transport = simulation.transport
        history = simulation.history
        counted = tracer.counted(traced_ops)
        traced_rounds = max(1, len(traced_ops))
        on_driver = tracer.durations(traced_ops, driver_only=True)
        peer_train = (tracer.durations(traced_ops).get("nn.local_train", 0.0)
                      - on_driver.get("nn.local_train", 0.0))
        # fixed round counts, so both figures are functions of the seed alone
        fixed = history.records[:self.check_rounds + self.ops_per_block]

        delta = ModelDelta(round_index=0, client_id=0,
                           state=simulation.server.global_state(), token="s1")
        repeats = 5 if self.smoke else 50
        start = perf_counter()
        for _ in range(repeats):
            frame = encode_message(delta)
        encode = (perf_counter() - start) / repeats
        start = perf_counter()
        for _ in range(repeats):
            decode_message(frame)
        decode = (perf_counter() - start) / repeats

        socket_p50 = float(np.median(latencies))
        frame_bytes = counted["transport.protocol_bytes"] / traced_rounds
        return {
            "transport.peer_train_s":
                peer_train / traced_rounds * self.ops_per_block,
            "transport.encode_delta_us": encode * 1e6,
            "transport.decode_delta_us": decode * 1e6,
            "transport.frames_per_round":
                counted["transport.protocol_frames"] / traced_rounds,
            "transport.wire_bytes_per_round": frame_bytes,
            "transport.overhead_ms_per_round":
                (socket_p50 - self.reference_p50) * 1e3,
            "transport.reconnects": sum(p.reconnects for p in system["peers"]),
            "transport.duplicate_deltas": transport.duplicate_deltas,
            "transport.decode_failures": sum(
                transport.decode_failures.values()),
            "ledger.bytes_per_round":
                self._ledger_bytes(system) / len(history),
            "wire.bytes_per_op": frame_bytes,
            "quality.selection_emd_mean": float(np.mean(
                [record.population_bias for record in fixed])),
            "quality.final_accuracy": fixed[-1].test_accuracy,
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    RegisterStream, SelectSecure, SelectScale, TrainInproc, RoundSocketLedger)}
