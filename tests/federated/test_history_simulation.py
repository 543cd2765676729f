"""Tests for TrainingHistory and the end-to-end FederatedSimulation."""

import numpy as np
import pytest

from repro.data.partition import ClientPartition, EMDTargetPartitioner
from repro.data.skew import half_normal_class_proportions
from repro.data.synthetic import make_synthetic_mnist, make_uniform_test_set
from repro.federated.client import LocalTrainingConfig
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.simulation import FederatedConfig, FederatedSimulation
from repro.nn.models import MLP
from repro.scenarios import DropoutSpec, ScenarioSpec


class RoundRobinSelector:
    """Deterministic selector used to exercise the simulation loop."""

    def __init__(self, n_clients: int, k: int):
        self.n_clients = n_clients
        self.k = k

    def select(self, round_index: int):
        start = (round_index * self.k) % self.n_clients
        return [(start + i) % self.n_clients for i in range(self.k)]


class EmptySelector:
    def select(self, round_index: int):
        return []


def record(i, acc=0.5, bias=0.1, dist=None):
    return RoundRecord(
        round_index=i,
        selected_clients=(0, 1),
        population_distribution=dist if dist is not None else np.array([0.5, 0.5]),
        population_bias=bias,
        test_accuracy=acc,
    )


class TestTrainingHistory:
    def test_series_and_summary(self):
        history = TrainingHistory()
        for i in range(10):
            history.append(record(i, acc=0.1 * i, bias=0.2))
        assert len(history) == 10
        assert history.final_accuracy() == pytest.approx(0.9)
        assert history.tail_average_accuracy(5) == pytest.approx(np.mean([0.5, 0.6, 0.7, 0.8, 0.9]))
        assert history.mean_population_bias() == pytest.approx(0.2)
        summary = history.summary()
        assert summary["rounds"] == 10

    def test_skipped_evaluations_are_nan(self):
        history = TrainingHistory()
        history.append(record(0, acc=None))
        history.append(record(1, acc=0.7))
        acc = history.accuracies()
        assert np.isnan(acc[0])
        assert history.final_accuracy() == pytest.approx(0.7)

    def test_average_population_distribution(self):
        history = TrainingHistory()
        history.append(record(0, dist=np.array([1.0, 0.0])))
        history.append(record(1, dist=np.array([0.0, 1.0])))
        np.testing.assert_allclose(history.average_population_distribution(), [0.5, 0.5])

    def test_failure_census(self):
        history = TrainingHistory()
        history.append(record(0))
        history.append(RoundRecord(1, (0, 1, 2), np.array([0.5, 0.5]), 0.3,
                                   0.6, actual_clients=(0,),
                                   failures={1: "dropout", 2: "straggler"},
                                   actual_population_bias=0.8))
        history.append(RoundRecord(2, (3, 4), np.array([0.5, 0.5]), 0.4, 0.6,
                                   actual_clients=(),
                                   failures={3: "dropout", 4: "offline"},
                                   aggregation_skipped=True,
                                   actual_population_bias=float("nan")))
        assert history.failure_counts() == {"dropout": 2, "straggler": 1,
                                            "offline": 1}
        assert history.skipped_rounds() == [2]
        # a scenario-free round reads its planned bias, an empty one NaN
        actual = history.actual_population_biases()
        assert actual[:2].tolist() == [0.1, 0.8] and np.isnan(actual[2])
        assert history.mean_actual_population_bias() == pytest.approx(0.45)

    def test_empty_history_errors(self):
        history = TrainingHistory()
        assert history.failure_counts() == {}
        assert history.skipped_rounds() == []
        with pytest.raises(ValueError):
            history.mean_actual_population_bias()
        with pytest.raises(ValueError):
            history.final_accuracy()
        with pytest.raises(ValueError):
            history.mean_population_bias()
        with pytest.raises(ValueError):
            history.average_population_distribution()
        with pytest.raises(ValueError):
            history.tail_average_accuracy(0)


@pytest.fixture(scope="module")
def small_setup():
    generator = make_synthetic_mnist(seed=0)
    global_dist = half_normal_class_proportions(10, 5.0)
    partition = EMDTargetPartitioner(12, 20, 1.0, seed=0).partition(global_dist)
    test_set = make_uniform_test_set(generator, samples_per_class=5, seed=1)
    return generator, partition, test_set


def small_config(rounds=3):
    return FederatedConfig(
        rounds=rounds,
        eval_every=1,
        local=LocalTrainingConfig(batch_size=8, local_epochs=1, learning_rate=1e-3),
        seed=0,
    )


class TestFederatedSimulation:
    def _make(self, small_setup, selector=None, config=None):
        generator, partition, test_set = small_setup
        selector = selector or RoundRobinSelector(partition.n_clients, 4)
        return FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=7),
            selector=selector,
            test_set=test_set,
            config=config or small_config(),
        )

    def test_run_produces_history(self, small_setup):
        sim = self._make(small_setup)
        history = sim.run()
        assert len(history) == 3
        assert all(r.test_accuracy is not None for r in history.records)
        assert all(0 <= r.population_bias <= 2 for r in history.records)

    def test_round_records_selected_clients(self, small_setup):
        sim = self._make(small_setup)
        rec = sim.run_round(0)
        assert rec.selected_clients == (0, 1, 2, 3)
        assert rec.population_distribution.shape == (10,)

    def test_eval_every_skips_evaluation(self, small_setup):
        sim = self._make(small_setup, config=FederatedConfig(
            rounds=4, eval_every=2, local=LocalTrainingConfig(learning_rate=1e-3), seed=0
        ))
        history = sim.run()
        acc = history.accuracies()
        assert not np.isnan(acc[0]) and not np.isnan(acc[2])
        assert np.isnan(acc[1]) and np.isnan(acc[3])

    def test_clients_are_cached(self, small_setup):
        sim = self._make(small_setup)
        a = sim.client(0)
        b = sim.client(0)
        assert a is b

    @pytest.mark.parametrize("index", [0, 5, 11])
    def test_client_data_is_drawn_from_its_own_seed(self, small_setup, index):
        # client k's data is the generator's draw at seed + 100_003·k, and a
        # scenario run keeps it for the whole run (nothing re-salts it)
        generator, partition, _ = small_setup
        config = FederatedConfig(
            rounds=3, local=LocalTrainingConfig(batch_size=8, learning_rate=1e-3),
            seed=3, scenario=ScenarioSpec(dropouts=DropoutSpec(probability=0.25),
                                          seed=1))
        expected = generator.generate(
            partition.client_class_counts[index],
            rng=np.random.default_rng(3 + 100_003 * index))
        with self._make(small_setup, config=config) as sim:
            before = sim.client(index).dataset
            sim.run()
            after = sim.client(index).dataset
        for dataset in (before, after):
            np.testing.assert_array_equal(dataset.x, expected.x)
            np.testing.assert_array_equal(dataset.y, expected.y)

    def test_empty_selection_raises(self, small_setup):
        sim = self._make(small_setup, selector=EmptySelector())
        with pytest.raises(RuntimeError):
            sim.run_round(0)

    def test_progress_callback_invoked(self, small_setup):
        sim = self._make(small_setup)
        seen = []
        sim.run(rounds=2, progress=lambda r: seen.append(r.round_index))
        assert seen == [0, 1]

    def test_mismatched_classes_rejected(self, small_setup):
        generator, partition, test_set = small_setup
        bad_generator = make_synthetic_mnist(num_classes=5, seed=0)
        with pytest.raises(ValueError):
            FederatedSimulation(
                partition=partition,
                generator=bad_generator,
                model_factory=lambda: MLP(64, 5, seed=0),
                selector=RoundRobinSelector(partition.n_clients, 2),
                test_set=test_set,
            )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FederatedConfig(rounds=0)
        with pytest.raises(ValueError):
            FederatedConfig(eval_every=0)

    def test_fallback_reason_surfaces_in_history(self, small_setup):
        # a ragged federation cannot be stacked into one cohort tensor, so a
        # vectorized run silently degrades to sequential — the round records
        # must say so instead of leaving the reason buried on the executor
        generator, _, test_set = small_setup
        counts = np.zeros((4, 10), dtype=int)
        counts[:, 0] = [8, 8, 12, 8]  # client 2 is bigger: ragged cohort
        ragged = ClientPartition(counts, 10)
        sim = FederatedSimulation(
            partition=ragged,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(16,), seed=7),
            selector=RoundRobinSelector(4, 4),
            test_set=test_set,
            config=FederatedConfig(
                rounds=2, executor_mode="vectorized",
                local=LocalTrainingConfig(learning_rate=1e-3), seed=0,
            ),
        )
        history = sim.run()
        reasons = history.fallback_reasons()
        assert [round_index for round_index, _ in reasons] == [0, 1]
        assert all(r.fallback_reason for r in history.records)
        sim.close()

    def test_scenario_free_records_have_no_fault_fields(self, small_setup):
        sim = self._make(small_setup)
        rec = sim.run_round(0)
        assert rec.actual_clients is None
        assert rec.participants == rec.selected_clients
        assert rec.failures == {} and not rec.aggregation_skipped
        assert rec.fallback_reason is None

    def test_close_is_idempotent_and_context_manager_cleans_up(self, small_setup):
        with self._make(small_setup) as sim:
            sim.run_round(0)
        sim.close()  # second close after __exit__ must be a no-op
        sim.close()

    def test_close_with_a_pending_socket_round_does_not_hang(self, small_setup):
        # teardown race: a transport-wrapped simulation is closed while its
        # server loop still has a round in flight (no client ever registers).
        # close() must cancel the pending round — the blocked run_round
        # raises TransportClosedError instead of hanging — and stay
        # idempotent afterwards.
        import threading

        from repro.core.config import TransportConfig
        from repro.transport.server import (TransportClosedError,
                                            TransportError)

        sim = self._make(small_setup, config=FederatedConfig(
            rounds=2, local=LocalTrainingConfig(learning_rate=1e-3), seed=0,
            transport=TransportConfig(kind="socket", connect_timeout=30.0),
        ))
        sim.transport.start()
        outcome = []

        def blocked_round():
            try:
                sim.transport.run_round(
                    [sim.client(0)], sim.server.new_client_model,
                    sim.server.global_state(), sim.config.local,
                    round_index=0)
                outcome.append("completed")
            except TransportClosedError:
                outcome.append("closed")
            except TransportError as exc:
                outcome.append(f"error: {exc}")

        thread = threading.Thread(target=blocked_round, daemon=True)
        thread.start()
        import time

        time.sleep(0.3)  # let the round reach its wait-for-clients loop
        sim.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "pending round survived close()"
        assert outcome == ["closed"]
        sim.close()  # still idempotent with the loop already gone

    def test_close_chain_survives_a_failing_transport(self, small_setup,
                                                      tmp_path):
        # the ledger session must be closed even when the transport (and
        # then the server) blow up during teardown — the close chain may
        # not short-circuit on the first failure
        sim = self._make(small_setup, config=FederatedConfig(
            rounds=1, local=LocalTrainingConfig(learning_rate=1e-3), seed=0,
            ledger_path=str(tmp_path / "runs.db"),
        ))
        sim.run()
        ledger_session = sim.ledger_session
        assert ledger_session is not None

        def exploding_close():
            raise RuntimeError("transport teardown raced the loop")

        sim.transport.close = exploding_close
        with pytest.raises(RuntimeError, match="teardown raced"):
            sim.close()
        # the chained finally still reached the ledger session
        from repro.ledger.store import RunLedger

        with RunLedger(str(tmp_path / "runs.db"), create=False) as ledger:
            info = ledger.run(ledger_session.run_id)
            assert info.status in ("complete", "completed", "finished")

    def test_training_improves_over_rounds(self, small_setup):
        # with enough rounds the global model should beat random guessing (0.1)
        generator, partition, test_set = small_setup
        sim = FederatedSimulation(
            partition=partition,
            generator=generator,
            model_factory=lambda: MLP(64, 10, hidden=(32,), seed=3),
            selector=RoundRobinSelector(partition.n_clients, 6),
            test_set=test_set,
            config=FederatedConfig(
                rounds=10,
                eval_every=1,
                local=LocalTrainingConfig(batch_size=8, local_epochs=2, learning_rate=5e-3),
                seed=1,
            ),
        )
        history = sim.run()
        assert history.final_accuracy() > 0.3
