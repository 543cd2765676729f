"""Serialization between live run objects and ledger rows.

Three codecs live here, all pure functions with exact inverses:

* **Global model state** — ``state_to_bytes``/``state_from_bytes`` pack a
  server state dict (parameter name → float64 array) into one NPZ blob, the
  per-round resume checkpoint.  ``state_sha256`` checksums the blob so a
  damaged checkpoint is detected before anything is restored from it.
* **Run configuration** — ``config_to_dict``/``config_from_dict`` flatten a
  resolved :class:`~repro.federated.FederatedConfig` (including its nested
  :class:`~repro.federated.LocalTrainingConfig` and
  :class:`~repro.scenarios.ScenarioSpec`) to a JSON-ready dict and rebuild
  it.  The ledger-plumbing fields (``run_mode``, ``ledger_path``,
  ``replay_source_run_id``, ``run_name``) are *not* part of the recorded
  config: they say how a run talks to the ledger, not what the run computes.
* **Recipes** — a :class:`RunRecipe` names an importable factory that can
  rebuild the non-serializable simulation components (partition, generator,
  model factory, selector, test set) from keyword arguments, which is what
  lets ``python -m repro.ledger verify``/``resume`` reconstruct a recorded
  run in a fresh process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "RETIRED_EXECUTOR_MODES",
    "RETIRED_KEYS",
    "RETIRED_TARGETS",
    "RunRecipe",
    "config_from_dict",
    "config_to_dict",
    "drop_retired_keys",
    "scenario_from_dict",
    "scenario_to_dict",
    "state_from_bytes",
    "state_sha256",
    "state_to_bytes",
]

#: FederatedConfig fields that parameterise the ledger session itself and
#: are therefore excluded from the recorded run configuration.
LEDGER_FIELDS = ("run_mode", "ledger_path", "replay_source_run_id", "run_name")

#: FederatedConfig's nested config group: the service layer's knobs say how
#: clients are reached, not what the run computes, so the recorded schema
#: leaves them out and loading rebuilds the default group.
GROUP_FIELDS = ("transport",)

#: Recorded-config keys that determine a run's numeric results.  RESUME and
#: VERIFY require these to match between the recorded run and the current
#: simulation; the executor back-end is absent on purpose — all back-ends
#: are bit-identical, which is exactly what makes cross-back-end VERIFY
#: meaningful.
DETERMINISM_KEYS = ("eval_every", "seed", "local", "scenario")

#: Keys that older ledgers recorded for knobs the config no longer has,
#: each with the one value every run now uses.  Loading drops a key that
#: holds that value; any other value names a run this code cannot
#: reproduce, and is refused (see :func:`drop_retired_keys`).  A dotted key
#: names a block inside the config, and a mapping value retires that whole
#: block when each key it lists holds its value: a scenario's label-drift
#: block only replays if it never drifted (``period`` 0).
RETIRED_KEYS = {
    "dtype": "float64",
    "shard_policy": "contiguous",
    "eval_backend": "batched",
    "dataset_cache_size": 1024,
    "scenario.drift": {"period": 0},
}

#: Executor back-ends that older ledgers recorded, each with the back-end
#: that now replays the run and the knobs that only the retired one read.
#: Every back-end is bit-identical and none of these keys is in
#: :data:`DETERMINISM_KEYS`, so loading swaps in the successor and drops the
#: knobs whatever they hold (every run recorded them, on any back-end).
RETIRED_EXECUTOR_MODES = {
    "parallel": ("vectorized", ("num_workers", "scheduler_timeout")),
}

#: Recipe targets that older ledgers recorded, each with the factory that
#: now builds the same components from the same recorded kwargs.
RETIRED_TARGETS = {
    "repro.ledger.recipes:quick_mlp": "repro.ledger.recipes:federation",
}


# -- model state ---------------------------------------------------------------------


def state_to_bytes(state: Mapping[str, np.ndarray]) -> bytes:
    """Pack a model state dict into one NPZ blob (the checkpoint format).

    Example
    -------
    >>> import numpy as np
    >>> blob = state_to_bytes({"layer.weight": np.ones((2, 2))})
    >>> state_from_bytes(blob)["layer.weight"].shape
    (2, 2)
    """
    buffer = io.BytesIO()
    np.savez(buffer, **{k: np.asarray(v) for k, v in state.items()})
    return buffer.getvalue()


def state_from_bytes(blob: bytes) -> "dict[str, np.ndarray]":
    """Unpack a :func:`state_to_bytes` blob back into a state dict.

    Example
    -------
    >>> import numpy as np
    >>> round_trip = state_from_bytes(state_to_bytes({"b": np.zeros(3)}))
    >>> round_trip["b"].tolist()
    [0.0, 0.0, 0.0]
    """
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def state_sha256(blob: bytes) -> str:
    """Hex SHA-256 of a checkpoint blob (stored next to it, checked on load).

    Example
    -------
    >>> len(state_sha256(b"abc"))
    64
    """
    return hashlib.sha256(blob).hexdigest()


# -- scenario specs ------------------------------------------------------------------


def scenario_to_dict(scenario) -> "Optional[dict]":
    """A :class:`~repro.scenarios.ScenarioSpec` as a JSON-ready dict.

    ``None`` stays ``None`` (a scenario-free run).  Mapping keys become
    strings under JSON; :func:`scenario_from_dict` restores them through the
    spec constructors' own normalisation.

    Example
    -------
    >>> from repro.scenarios import ScenarioSpec
    >>> scenario_to_dict(ScenarioSpec(seed=3))["seed"]
    3
    >>> scenario_to_dict(None) is None
    True
    """
    if scenario is None:
        return None
    return dataclasses.asdict(scenario)


def scenario_from_dict(payload: "Optional[Mapping]"):
    """Rebuild a :class:`~repro.scenarios.ScenarioSpec` from its dict form.

    A retired block (the ``scenario.*`` keys of :data:`RETIRED_KEYS`) is
    dropped if it holds its surviving value and refused otherwise, as
    :func:`drop_retired_keys` does for a whole config.

    Example
    -------
    >>> from repro.scenarios import ScenarioSpec
    >>> spec = ScenarioSpec(seed=3)
    >>> scenario_from_dict(scenario_to_dict(spec)) == spec
    True
    """
    from ..scenarios.spec import (AvailabilitySpec, ChurnSpec, DropoutSpec,
                                  NetworkSpec, ScenarioSpec, StragglerSpec)

    if payload is None:
        return None
    payload = drop_retired_keys({"scenario": payload})["scenario"]
    network = payload.get("network")
    return ScenarioSpec(
        availability=AvailabilitySpec(**payload["availability"]),
        churn=ChurnSpec(**payload["churn"]),
        stragglers=StragglerSpec(**payload["stragglers"]),
        dropouts=DropoutSpec(**payload["dropouts"]),
        network=None if network is None else NetworkSpec(**network),
        min_participation=payload["min_participation"],
        seed=payload["seed"],
    )


# -- run configuration ---------------------------------------------------------------


def _drop_retired(owner: dict, key: str, surviving, path: str) -> None:
    """Pop *key* from *owner*, refusing any value but *surviving*.

    A mapping *surviving* retires a block: each key it lists must hold its
    value, and the rest of the block goes with it.
    """
    from .modes import LedgerMismatchError

    recorded = owner.pop(key, surviving)
    if isinstance(surviving, Mapping):
        for name, value in surviving.items():
            _drop_retired(dict(recorded), name, value, f"{path}.{name}")
    elif recorded != surviving:
        raise LedgerMismatchError(
            f"recorded {path}={recorded!r}, but every run now uses "
            f"{path}={surviving!r}"
        )


def drop_retired_keys(payload: Mapping) -> dict:
    """A copy of a recorded config without its :data:`RETIRED_KEYS`.

    Raises :class:`~repro.ledger.LedgerMismatchError`, naming the key, when
    a retired key holds anything but its surviving value — a run recorded
    with another value would not replay bit-for-bit.  A retired executor
    back-end becomes its successor (:data:`RETIRED_EXECUTOR_MODES`).
    *payload* and the blocks inside it are left untouched.

    Example
    -------
    >>> drop_retired_keys({"seed": 3, "dtype": "float64"})
    {'seed': 3}
    >>> drop_retired_keys({"dtype": "float32"})
    Traceback (most recent call last):
    ...
    repro.ledger.modes.LedgerMismatchError: recorded dtype='float32', but every run now uses dtype='float64'
    >>> drop_retired_keys({"scenario": {"seed": 0, "drift": {"period": 0, "shift": 1}}})
    {'scenario': {'seed': 0}}
    >>> drop_retired_keys({"executor_mode": "parallel", "num_workers": 2})
    {'executor_mode': 'vectorized'}
    """
    kept = dict(payload)
    for retired, (successor, knobs) in RETIRED_EXECUTOR_MODES.items():
        if kept.get("executor_mode") == retired:
            kept["executor_mode"] = successor
        for knob in knobs:
            kept.pop(knob, None)
    for path, surviving in RETIRED_KEYS.items():
        *blocks, key = path.split(".")
        owner = kept
        for name in blocks:
            if owner.get(name) is None:
                break
            owner[name] = dict(owner[name])
            owner = owner[name]
        else:
            _drop_retired(owner, key, surviving, path)
    return kept


def config_to_dict(config) -> dict:
    """A resolved :class:`~repro.federated.FederatedConfig` as a JSON dict.

    The ledger-plumbing fields (:data:`LEDGER_FIELDS`) are stripped: the
    recorded configuration describes what the run computes, independent of
    which ledger it was recorded to.

    Example
    -------
    >>> from repro.federated import FederatedConfig
    >>> payload = config_to_dict(FederatedConfig(rounds=3, seed=1))
    >>> payload["rounds"], "ledger_path" in payload
    (3, False)
    """
    payload = dataclasses.asdict(config)
    for name in LEDGER_FIELDS + GROUP_FIELDS:
        payload.pop(name, None)
    payload["scenario"] = scenario_to_dict(config.scenario)
    return payload


def config_from_dict(payload: Mapping, **overrides):
    """Rebuild a :class:`~repro.federated.FederatedConfig` from its dict form.

    *overrides* replace recorded fields — the CLI uses this to re-attach the
    ledger plumbing (``run_mode="verify"``, ``ledger_path=...``) and to
    re-execute a recorded run on a different executor back-end.  Keys of
    retired knobs are dropped (:func:`drop_retired_keys`).

    Example
    -------
    >>> from repro.federated import FederatedConfig
    >>> recorded = config_to_dict(FederatedConfig(rounds=3, seed=1))
    >>> config_from_dict(recorded, executor_mode="vectorized").rounds
    3
    """
    from ..federated.client import LocalTrainingConfig
    from ..federated.simulation import FederatedConfig

    kwargs = drop_retired_keys(payload)
    for name in GROUP_FIELDS:  # tolerate payloads that recorded the groups
        kwargs.pop(name, None)
    kwargs["local"] = LocalTrainingConfig(**kwargs["local"])
    kwargs["scenario"] = scenario_from_dict(kwargs.get("scenario"))
    kwargs.update(overrides)
    return FederatedConfig(**kwargs)


# -- recipes -------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecipe:
    """An importable factory that rebuilds a run's simulation components.

    ``target`` is a ``"package.module:function"`` path; calling it with
    ``kwargs`` must return a dict with the keys ``partition``,
    ``generator``, ``model_factory``, ``selector`` and ``test_set`` — the
    non-serializable constructor arguments of
    :class:`~repro.federated.FederatedSimulation`.  Recording a recipe next
    to a run is what makes ``python -m repro.ledger verify``/``resume``
    possible from a cold process; runs recorded without one can still be
    resumed or verified programmatically by whoever can rebuild the
    simulation.

    Example
    -------
    >>> recipe = RunRecipe("repro.ledger.recipes:federation",
    ...                    {"n_clients": 16, "participants": 4, "seed": 0})
    >>> sorted(recipe.build())
    ['generator', 'model_factory', 'partition', 'selector', 'test_set']
    """

    target: str
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.target:
            raise ValueError(
                "recipe target must be 'package.module:function', got "
                f"{self.target!r}"
            )
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    def resolve(self):
        """Import and return the factory callable.

        A target of :data:`RETIRED_TARGETS` resolves to its successor.

        Example
        -------
        >>> RunRecipe("repro.ledger.recipes:quick_mlp").resolve().__name__
        'federation'
        """
        target = RETIRED_TARGETS.get(self.target, self.target)
        module_name, _, attribute = target.partition(":")
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attribute)
        except AttributeError as exc:
            raise ValueError(
                f"recipe target {self.target!r}: {module_name} has no "
                f"attribute {attribute!r}"
            ) from exc

    def build(self) -> dict:
        """Call the factory and validate its component dict.

        Example
        -------
        >>> components = RunRecipe("repro.ledger.recipes:federation",
        ...                        {"n_clients": 16, "seed": 0}).build()
        >>> components["partition"].n_clients
        16
        """
        components = self.resolve()(**self.kwargs)
        required = {"partition", "generator", "model_factory", "selector",
                    "test_set"}
        if not isinstance(components, Mapping):
            raise ValueError(
                f"recipe {self.target!r} must return a dict of simulation "
                f"components, got {type(components).__name__}"
            )
        missing = required - set(components)
        if missing:
            raise ValueError(
                f"recipe {self.target!r} returned components without "
                f"{sorted(missing)}"
            )
        return components

    def to_dict(self) -> dict:
        """JSON-ready form (the ledger's ``recipe_json`` column).

        Example
        -------
        >>> RunRecipe("m.o:d", {"x": 1}).to_dict()
        {'target': 'm.o:d', 'kwargs': {'x': 1}}
        """
        return {"target": self.target, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRecipe":
        """Inverse of :meth:`to_dict`.

        Example
        -------
        >>> RunRecipe.from_dict({"target": "m.o:d", "kwargs": {}}).target
        'm.o:d'
        """
        return cls(target=payload["target"],
                   kwargs=dict(payload.get("kwargs") or {}))
