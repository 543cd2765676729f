"""``FederatedConfig`` is the one flat description of a run.

Every executor and ledger knob has exactly one spelling, so these tests pin
the contract of that single spelling: each validation rule rejects what it
should, every recorded field survives the ledger codec, the fields the
ledger deliberately leaves out are really left out, and every literal
``FederatedConfig(...)`` call in ``examples/``, ``tests/`` and ``src/``
either builds a config holding exactly its arguments or is refused the
same way through the codec.
"""

import ast
import dataclasses
import json
import pathlib

import pytest

from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.federated.simulation import FederatedConfig
from repro.ledger import config_from_dict, config_to_dict
from repro.ledger.codec import GROUP_FIELDS, LEDGER_FIELDS
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import DropoutSpec, NetworkSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _recorded(config):
    """*config* after one trip through the ledger's JSON form."""
    payload = json.loads(json.dumps(config_to_dict(config)))
    plumbing = {name: getattr(config, name) for name in LEDGER_FIELDS}
    return config_from_dict(payload, **plumbing)


class TestFederatedConfigValidation:
    @pytest.mark.parametrize("kwargs,error", [
        ({"executor_mode": "quantum"}, ValueError),
        ({"executor_mode": "thread"}, ValueError),
        ({"executor_mode": "process"}, ValueError),
        ({"transport": {"kind": "socket"}}, TypeError),
        ({"rounds": 0}, ValueError),
        ({"eval_every": 0}, ValueError),
        ({"dataset_cache_size": 0}, TypeError),
        ({"executor_mode": "parallel"}, ValueError),
        ({"num_workers": 2}, TypeError),
        ({"scheduler_timeout": 120.0}, TypeError),
        ({"scenario": {"seed": 1}}, TypeError),
        ({"scenario": ScenarioSpec(network=NetworkSpec(latency=0.01))},
         ValueError),
        ({"run_mode": "rewind", "ledger_path": "x.db"}, ValueError),
        ({"run_mode": "verify"}, ValueError),
        ({"ledger_path": "x.db", "replay_source_run_id": "abc"}, ValueError),
    ], ids=lambda value: "-".join(map(str, value)) if isinstance(value, dict)
        else value.__name__)
    def test_rule_rejects(self, kwargs, error):
        with pytest.raises(error):
            FederatedConfig(**kwargs)

    @pytest.mark.parametrize("group", ["executor", "ledger"])
    def test_nested_group_keyword_is_rejected(self, group):
        with pytest.raises(TypeError):
            FederatedConfig(**{group: {}})

    @pytest.mark.parametrize("knob,value", [
        ("dtype", "float64"), ("shard_policy", "contiguous"),
        ("eval_backend", "batched"), ("dataset_cache_size", 1024),
        ("dtype", "float32"), ("shard_policy", "interleaved"),
        ("eval_backend", "sequential"), ("dataset_cache_size", None)])
    def test_retired_knob_is_rejected(self, knob, value):
        # whatever the value, even the one every run uses: the config has no
        # such field
        with pytest.raises(TypeError):
            FederatedConfig(**{knob: value})

    def test_eleven_fields(self):
        # one census of the settable values: a field added or retired
        # changes this list on purpose
        assert [f.name for f in dataclasses.fields(FederatedConfig)] == [
            "rounds", "eval_every", "local", "executor_mode", "seed",
            "scenario", "run_mode", "ledger_path", "replay_source_run_id",
            "run_name", "transport"]

    def test_network_scenario_is_accepted_on_sockets(self):
        config = FederatedConfig(
            scenario=ScenarioSpec(network=NetworkSpec(latency=0.01)),
            transport=TransportConfig(kind="socket"))
        assert config.scenario.network.latency == 0.01


class TestTransportConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "carrier-pigeon"},
        {"port": -1},
        {"port": 65536},
        {"round_timeout": 0.0},
        {"connect_timeout": 0.0},
        {"heartbeat_interval": -1.0},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rule_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)

    def test_six_fields(self):
        assert [f.name for f in dataclasses.fields(TransportConfig)] == [
            "kind", "host", "port", "round_timeout", "connect_timeout",
            "heartbeat_interval"]

    @pytest.mark.parametrize("knob", [
        "retries", "backoff", "max_backoff", "retry_jitter", "send_queue",
        "max_frame_bytes", "min_participation", "heartbeat_limit"])
    def test_removed_field_is_rejected(self, knob):
        # each decision has one owner elsewhere: the client's RetryPolicy,
        # the server's SEND_QUEUE and HEARTBEAT_LIMIT, the wire format's
        # frame cap and the scenario's floor
        with pytest.raises(TypeError):
            TransportConfig(**{knob: 1})


class TestLedgerCodec:
    @pytest.mark.parametrize("kwargs", [
        {"rounds": 7},
        {"eval_every": 3},
        {"local": LocalTrainingConfig(batch_size=4, local_epochs=2)},
        {"executor_mode": "sequential"},
        {"seed": 11},
        {"scenario": ScenarioSpec(dropouts=DropoutSpec(probability=0.2),
                                  seed=4)},
    ], ids=lambda kwargs: "-".join(kwargs))
    def test_recorded_field_round_trips(self, kwargs):
        config = FederatedConfig(**kwargs)
        assert config != FederatedConfig()
        assert _recorded(config) == config

    @pytest.mark.parametrize("name,kwargs", [
        ("run_mode", {"run_mode": "resume", "ledger_path": "x.db"}),
        ("ledger_path", {"ledger_path": "x.db"}),
        ("replay_source_run_id",
         {"run_mode": "verify", "ledger_path": "x.db",
          "replay_source_run_id": "abc"}),
        ("run_name", {"run_name": "demo"}),
        ("transport", {"transport": TransportConfig(kind="socket")}),
    ])
    def test_plumbing_field_is_not_recorded(self, name, kwargs):
        assert name in LEDGER_FIELDS + GROUP_FIELDS
        config = FederatedConfig(**kwargs)
        payload = config_to_dict(config)
        assert name not in payload
        assert payload == config_to_dict(FederatedConfig())


def _literal_federated_config_calls():
    """Every ``FederatedConfig(...)`` call in examples/, tests/ and src/
    whose keyword arguments are plain literals."""
    calls = []
    this_file = pathlib.Path(__file__).resolve()
    for root in ("examples", "tests", "src"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.resolve() == this_file:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "FederatedConfig"
                        and not node.args):
                    if any(kw.arg is None for kw in node.keywords):
                        continue
                    try:
                        kwargs = {kw.arg: ast.literal_eval(kw.value)
                                  for kw in node.keywords}
                    except ValueError:
                        continue  # non-literal args (argparse values, ...)
                    calls.append((f"{path.relative_to(REPO_ROOT)}:"
                                  f"{node.lineno}", kwargs))
    return calls


class TestRecordedCalls:
    def test_corpus_is_nonempty(self):
        assert len(_literal_federated_config_calls()) >= 5

    @pytest.mark.parametrize(
        "location,kwargs",
        _literal_federated_config_calls() or [("none", {})],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_every_recorded_call_resolves_identically(self, location, kwargs):
        # some harvested calls come from error-path tests and are *meant*
        # to raise; re-building them from a ledger payload must raise too
        try:
            config = FederatedConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                config_from_dict(config_to_dict(FederatedConfig()), **kwargs)
            return
        fields = {f.name for f in dataclasses.fields(FederatedConfig)}
        for name, value in kwargs.items():
            assert name in fields, (location, name)
            assert getattr(config, name) == value, (location, name)
        assert _recorded(config) == config, location
