"""``repro.api.Session``: the builder for scenario, ledger and recipe runs.

:class:`~repro.federated.FederatedSimulation` is the engine and
:class:`~repro.federated.FederatedConfig` the one flat description of a run;
a ``Session`` assembles them when a run needs a scenario, a ledger or a
recipe::

    from repro.api import Session

    result = (Session(config)
              .with_recipe("repro.ledger.recipes:federation", n_clients=16)
              .with_scenario(spec)
              .with_ledger("runs.db")
              .run(rounds=20))

See ``docs/session.md`` for the narrative guide.
"""

from .session import Session, SessionResult

__all__ = ["Session", "SessionResult"]
