"""The ``repro.api.Session`` builder over the one flat ``FederatedConfig``.

A ``Session`` chain drives plain runs, scenario runs and ledgered runs
through one code path, each ``with_*`` step replaces exactly the flat fields
it names, and the builder refuses out-of-order configuration instead of
guessing.
"""

import warnings

import numpy as np
import pytest

from repro import FederatedConfig, Session
from repro.api.session import SessionResult
from repro.core.config import TransportConfig
from repro.scenarios import DropoutSpec, ScenarioSpec

RECIPE_TARGET = "repro.ledger.recipes:federation"
RECIPE_KWARGS = dict(n_clients=8, participants=2, samples_per_client=12,
                     seed=0)


def make_session(config=None):
    return Session(config or FederatedConfig(rounds=2, eval_every=1, seed=0)
                   ).with_recipe(RECIPE_TARGET, **RECIPE_KWARGS)


class TestPlainRuns:
    def test_run_returns_history_only(self):
        with make_session() as session:
            result = session.run()
        assert isinstance(result, SessionResult)
        assert len(result.history) == 2
        assert result.run_id is None

    def test_session_never_emits_the_deprecation_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with make_session() as session:
                session.run()

    def test_with_federation_components_path(self):
        from repro.ledger.codec import RunRecipe

        components = RunRecipe(RECIPE_TARGET, RECIPE_KWARGS).build()
        session = Session(FederatedConfig(rounds=1, seed=0))
        session.with_federation(
            partition=components["partition"],
            generator=components["generator"],
            model_factory=components["model_factory"],
            selector=components["selector"],
            test_set=components["test_set"],
        )
        with session:
            assert len(session.run().history) == 1

    def test_run_matches_the_direct_simulation(self):
        with make_session() as session:
            facade_state = session.run().history
            state_a = session.simulation.server.global_state()
        with make_session() as session:
            simulation = session.build()
            simulation.run()
            state_b = simulation.server.global_state()
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name])
        assert len(facade_state) == 2


class TestScenarioRuns:
    def test_a_scenario_run_is_reduced_by_its_history(self):
        config = FederatedConfig(rounds=2, eval_every=1, seed=0)
        # every selected client drops: two of two, in both rounds
        spec = ScenarioSpec(dropouts=DropoutSpec(probability=1.0), seed=3)
        with make_session(config).with_scenario(spec) as session:
            result = session.run()
            assert session.simulation.config.scenario is spec
        history = result.history
        assert len(history) == 2
        assert history.failure_counts() == {"dropout": 4}
        assert history.skipped_rounds() == [0, 1]

class TestLedgerRuns:
    def test_with_ledger_records_and_returns_run_id(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with make_session().with_ledger(path, run_name="api") as session:
            result = session.run()
        assert result.run_id

        from repro.ledger.store import RunLedger

        with RunLedger(path, create=False) as ledger:
            info = ledger.run(result.run_id)
            assert info.name == "api"
            assert info.rounds_committed == 2

    def test_ledger_cli_round_trips_a_session_run(self, tmp_path, capsys):
        path = str(tmp_path / "runs.db")
        with make_session().with_ledger(path) as session:
            run_id = session.run().run_id

        from repro.ledger.cli import main

        assert main(["verify", path, run_id]) == 0
        assert run_id in capsys.readouterr().out


class TestBuilderGuards:
    def test_missing_federation_is_an_error(self):
        with pytest.raises(ValueError, match="with_federation"):
            Session(FederatedConfig()).build()

    def test_unknown_component_kwargs_are_rejected(self):
        with pytest.raises(TypeError, match="unknown component"):
            Session(FederatedConfig(), executor="nope")

    def test_configuring_after_build_is_an_error(self):
        with make_session() as session:
            session.build()
            with pytest.raises(RuntimeError, match="already built"):
                session.with_transport(kind="inprocess")

    def test_with_transport_rejects_both_spellings(self):
        with pytest.raises(TypeError, match="not both"):
            Session().with_transport(TransportConfig(), kind="inprocess")

    def test_with_transport_sets_the_group(self):
        session = Session().with_transport(kind="socket", round_timeout=5.0)
        assert session._config.transport.kind == "socket"
        assert session._config.transport.round_timeout == 5.0

    def test_build_is_idempotent(self):
        with make_session() as session:
            assert session.build() is session.build()


class TestFlatConfig:
    def test_with_ledger_twice_keeps_only_the_second(self):
        session = (Session(FederatedConfig(rounds=5))
                   .with_ledger("a.db", run_name="first")
                   .with_ledger("b.db", run_mode="verify",
                                source_run_id="abc"))
        config = session._config
        assert (config.ledger_path, config.run_mode) == ("b.db", "verify")
        assert (config.replay_source_run_id, config.run_name) == ("abc", None)
        assert config.rounds == 5

    def test_with_ledger_then_with_transport_keeps_both(self):
        config = (Session(FederatedConfig(executor_mode="vectorized"))
                  .with_ledger("runs.db", run_name="api")
                  .with_transport(kind="socket", round_timeout=9.0))._config
        assert (config.ledger_path, config.run_name) == ("runs.db", "api")
        assert config.transport.round_timeout == 9.0
        assert config.executor_mode == "vectorized"

    def test_with_ledger_keeps_the_transport_group(self):
        config = FederatedConfig(
            transport=TransportConfig(kind="socket", round_timeout=9.0))
        amended = Session(config).with_ledger("runs.db")._config
        assert amended.transport.round_timeout == 9.0
        assert amended.ledger_path == "runs.db"

    @pytest.mark.parametrize("group", ["executor", "ledger"])
    def test_nested_group_keywords_are_unknown(self, group):
        with pytest.raises(TypeError, match=group):
            FederatedConfig(**{group: {"mode": "vectorized"}})
