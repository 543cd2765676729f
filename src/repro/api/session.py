""":class:`Session` — the builder for scenario, ledger and recipe runs.

:class:`~repro.federated.FederatedSimulation` is the engine and
:class:`~repro.federated.FederatedConfig` the one flat description of a run;
``Session`` assembles the two for the runs that need more than a bare
engine — a fault-injection scenario, a run ledger, or components rebuilt
from an importable recipe::

    result = (Session(config)
              .with_federation(partition=..., generator=..., model_factory=...,
                               selector=..., test_set=...)
              .with_scenario(spec)
              .with_ledger("runs.db")
              .run(rounds=20))
    result.history      # TrainingHistory — always; its failure_counts(),
                        # skipped_rounds() etc. reduce a scenario run
    result.run_id       # ledger run id — when a ledger was attached

Every transport (in-process back-ends and the asyncio socket layer) runs
through this same code path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..core.config import TransportConfig
from ..federated.simulation import FederatedConfig, FederatedSimulation

__all__ = ["Session", "SessionResult"]

#: the component kwargs a simulation needs (mirrors FederatedSimulation)
_COMPONENT_KEYS = ("partition", "generator", "model_factory", "selector",
                   "test_set")


@dataclass(frozen=True)
class SessionResult:
    """What one :meth:`Session.run` produced.

    ``history`` is always present; ``run_id`` only when the session recorded
    to a ledger.

    Example
    -------
    >>> # result = Session(config).with_federation(**parts).run(5)
    >>> # result.history.final_accuracy(), result.run_id
    >>> SessionResult.__dataclass_fields__["run_id"].default is None
    True
    """

    history: object
    run_id: Optional[str] = None


class Session:
    """Builder-style front door for federated runs (see the module docstring).

    The ``with_*`` methods refine the configuration and return ``self`` for
    chaining; :meth:`build` materialises the simulation exactly once (later
    ``with_*`` calls are an error), and :meth:`run` drives it end to end.
    Sessions are context managers — the simulation is closed on exit.

    Example
    -------
    >>> from repro import FederatedConfig
    >>> session = Session(FederatedConfig(rounds=2, seed=0))
    >>> session.with_recipe("repro.ledger.recipes:federation", n_clients=8,
    ...                     participants=2, seed=0) is session
    True
    >>> session.build().config.rounds
    2
    >>> session.close()
    """

    def __init__(self, config: Optional[FederatedConfig] = None, *,
                 recipe=None, **components):
        unknown = set(components) - set(_COMPONENT_KEYS)
        if unknown:
            raise TypeError(f"unknown component kwargs: {sorted(unknown)}")
        self._config = config or FederatedConfig()
        if not isinstance(self._config, FederatedConfig):
            raise TypeError("config must be a FederatedConfig (or None)")
        self._components = dict(components)
        self._recipe = recipe
        self._simulation: Optional[FederatedSimulation] = None

    # -- introspection ---------------------------------------------------------

    @property
    def simulation(self) -> Optional[FederatedSimulation]:
        """The built simulation (``None`` before :meth:`build`).

        Example
        -------
        >>> Session().simulation is None
        True
        """
        return self._simulation

    # -- builder steps ---------------------------------------------------------

    def _amend_config(self, **changes) -> "Session":
        if self._simulation is not None:
            raise RuntimeError(
                "this Session already built its simulation; configure "
                "before build()/run()"
            )
        self._config = dataclasses.replace(self._config, **changes)
        return self

    def with_federation(self, *, partition, generator, model_factory,
                        selector, test_set) -> "Session":
        """Provide the federation's components (who trains on what).

        Example
        -------
        >>> # Session(config).with_federation(partition=p, generator=g,
        >>> #     model_factory=make, selector=s, test_set=t)
        >>> "partition" in _COMPONENT_KEYS
        True
        """
        if self._simulation is not None:
            raise RuntimeError("this Session already built its simulation")
        self._components = dict(partition=partition, generator=generator,
                                model_factory=model_factory,
                                selector=selector, test_set=test_set)
        return self

    def with_recipe(self, target, **kwargs) -> "Session":
        """Provide the federation through an importable ledger recipe.

        *target* is a :class:`~repro.ledger.codec.RunRecipe` or a
        ``"package.module:function"`` string; the recipe is also recorded
        next to any ledgered run, which is what makes cold-process
        resume/verify possible.

        Example
        -------
        >>> session = Session().with_recipe("repro.ledger.recipes:federation",
        ...                                 n_clients=8, seed=0)
        >>> session.build().partition.n_clients
        8
        >>> session.close()
        """
        from ..ledger.codec import RunRecipe

        if self._simulation is not None:
            raise RuntimeError("this Session already built its simulation")
        if isinstance(target, RunRecipe):
            if kwargs:
                raise TypeError("pass kwargs inside the RunRecipe")
            self._recipe = target
        else:
            self._recipe = RunRecipe(target, kwargs)
        return self

    def with_scenario(self, spec) -> "Session":
        """Attach a fault-injection :class:`~repro.scenarios.ScenarioSpec`.

        The run's history then carries the failure census
        (:meth:`~repro.federated.TrainingHistory.failure_counts`), the
        skipped rounds and the survivors' population EMD.

        Example
        -------
        >>> from repro.scenarios import ScenarioSpec
        >>> session = Session().with_scenario(ScenarioSpec(seed=1))
        >>> simulation = session.with_recipe("repro.ledger.recipes:federation",
        ...                                  n_clients=8, seed=0).build()
        >>> simulation.config.scenario.seed
        1
        >>> session.close()
        """
        return self._amend_config(scenario=spec)

    def with_ledger(self, path: str, run_mode: str = "live",
                    source_run_id: Optional[str] = None,
                    run_name: Optional[str] = None) -> "Session":
        """Record to (or resume/verify from) a run ledger at *path*.

        Example
        -------
        >>> import os, tempfile
        >>> with tempfile.TemporaryDirectory() as folder:
        ...     session = Session().with_recipe(
        ...         "repro.ledger.recipes:federation", n_clients=8, seed=0)
        ...     path = os.path.join(folder, "runs.db")
        ...     simulation = session.with_ledger(path, run_name="demo").build()
        ...     print(simulation.config.ledger_path == path)
        ...     session.close()
        True
        """
        return self._amend_config(
            ledger_path=path, run_mode=run_mode,
            replay_source_run_id=source_run_id, run_name=run_name)

    def with_transport(self, transport: Optional[TransportConfig] = None,
                       **knobs) -> "Session":
        """Choose the service layer (in-process, or the asyncio socket server).

        *knobs* are the six :class:`~repro.core.config.TransportConfig`
        fields: ``kind``, ``host``, ``port``, ``round_timeout``,
        ``connect_timeout`` (the one bound on the registration wait) and
        ``heartbeat_interval`` (a connection silent for three intervals is
        declared dead; ``0`` disables probing).  The partial-round floor is
        the scenario's ``min_participation``, the frame cap is the wire
        format's, and a client's reconnect schedule is the ``RECONNECT_*``
        constants of :mod:`repro.transport.client`.
        Network-level chaos (latency, corruption, partitions) is *not* a
        transport knob — declare a
        :class:`~repro.scenarios.NetworkSpec` on the scenario and the
        simulation interposes the chaos proxy automatically.

        Example
        -------
        >>> session = Session().with_transport(kind="socket", round_timeout=5.0)
        >>> simulation = session.with_recipe("repro.ledger.recipes:federation",
        ...                                  n_clients=8, seed=0).build()
        >>> simulation.config.transport.kind
        'socket'
        >>> session.close()
        """
        if transport is not None and knobs:
            raise TypeError("pass either a TransportConfig or knobs, not both")
        return self._amend_config(
            transport=transport if transport is not None
            else TransportConfig(**knobs))

    # -- execution -------------------------------------------------------------

    def build(self) -> FederatedSimulation:
        """Materialise the simulation (once) without running it.

        Components come from :meth:`with_federation` or, failing that, from
        the recipe.

        Example
        -------
        >>> session = Session().with_recipe("repro.ledger.recipes:federation",
        ...                                 n_clients=8, participants=2, seed=0)
        >>> session.build() is session.simulation
        True
        >>> session.close()
        """
        if self._simulation is not None:
            return self._simulation
        components = self._components
        if not components:
            if self._recipe is None:
                raise ValueError(
                    "no federation to run: call with_federation(...) or "
                    "with_recipe(...) first"
                )
            components = self._recipe.build()
            components = {key: components[key] for key in _COMPONENT_KEYS}
        missing = [key for key in _COMPONENT_KEYS if key not in components]
        if missing:
            raise ValueError(f"with_federation is missing {missing}")
        self._simulation = FederatedSimulation(
            config=self._config, recipe=self._recipe, **components)
        return self._simulation

    def run(self, rounds: Optional[int] = None) -> SessionResult:
        """Drive the run end to end and collect every artefact.

        Example
        -------
        >>> session = Session(None).with_recipe(
        ...     "repro.ledger.recipes:federation", n_clients=8, participants=2,
        ...     seed=0)
        >>> result = session.run(rounds=1)
        >>> len(result.history)
        1
        >>> session.close()
        """
        simulation = self.build()
        history = simulation.run(rounds)
        run_id = (simulation.ledger_session.run_id
                  if simulation.ledger_session is not None else None)
        return SessionResult(history=history, run_id=run_id or None)

    def close(self) -> None:
        """Close the built simulation (a no-op before :meth:`build`).

        Example
        -------
        >>> Session().close()
        """
        if self._simulation is not None:
            self._simulation.close()

    def __enter__(self) -> "Session":
        """Context-manager entry.

        Example
        -------
        >>> with Session() as session:
        ...     session.simulation is None
        True
        """
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the simulation."""
        self.close()
