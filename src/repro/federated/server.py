"""The federated server: holds the global model and aggregates client updates.

The server in Dubhe is honest-but-curious: it orchestrates rounds and
aggregates both model updates and (encrypted) registries, but it never sees
private keys.  This class only handles the model side; the encrypted
registry/ distribution aggregation lives in :mod:`repro.core.secure`, keeping
the two concerns — learning and selection privacy — cleanly separated, which
is also what makes Dubhe "pluggable".
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.metrics import BatchedEvaluator
from ..nn.module import Module
from .aggregation import average_states

__all__ = ["FederatedServer"]

StateDict = dict[str, np.ndarray]


class FederatedServer:
    """Holds the global model and performs FedVC aggregation (eq. (1)).

    :meth:`aggregate` is the uniform average of the client states: every
    FedVC virtual client holds the same number of samples, so this equals
    sample-weighted FedAvg.  :meth:`evaluate` pushes the test set through
    the forward-only cohort kernels (:class:`repro.nn.metrics.BatchedEvaluator`,
    built on the first call and reused every round).

    Example
    -------
    >>> from repro.nn.models import MLP
    >>> server = FederatedServer(lambda: MLP(8, 2, hidden=(4,), seed=0))
    >>> sorted(server.global_state())[:2]
    ['net.layers.1.bias', 'net.layers.1.weight']
    >>> server.rounds_completed
    0
    """

    def __init__(self, model_factory: Callable[[], Module]):
        self.model_factory = model_factory
        self.global_model = model_factory()
        self.rounds_completed = 0
        #: rounds whose aggregation was skipped (survivors below the floor)
        self.rounds_skipped = 0
        self._evaluator: Optional[BatchedEvaluator] = None

    # -- weights -----------------------------------------------------------------

    def global_state(self, copy: bool = True) -> StateDict:
        """The current global weights (what gets sent to clients).

        ``copy=False`` returns read-only views instead of copies — the round
        loop uses this to share one global state across all workers, since
        every back-end copies on load (copy-on-write) and aggregation only
        happens after all local updates finish.
        """
        return self.global_model.state_dict(copy=copy)

    def restore(self, state: StateDict, rounds_completed: int = 0,
                rounds_skipped: int = 0) -> None:
        """Load a checkpointed global state (the run ledger's RESUME path).

        Replaces the global model's weights with *state* — a state dict
        recorded by :class:`repro.ledger.RunLedger` after some earlier
        round's aggregation — and restores the server's round counters, so a
        resumed run continues exactly where the recorded one stopped.  The
        cached batched evaluator (if any) reloads the weights on its next
        :meth:`evaluate` call, nothing else needs rebuilding.

        Example
        -------
        >>> from repro.nn.models import MLP
        >>> server = FederatedServer(lambda: MLP(8, 2, hidden=(4,), seed=0))
        >>> server.restore(server.global_state(), rounds_completed=3)
        >>> server.rounds_completed
        3
        """
        if rounds_completed < 0 or rounds_skipped < 0:
            raise ValueError("round counters must be >= 0")
        self.global_model.load_state_dict(state)
        self.rounds_completed = rounds_completed
        self.rounds_skipped = rounds_skipped

    def aggregate(self, client_states: Sequence[StateDict],
                  expected_count: Optional[int] = None,
                  min_participation: float = 0.0) -> Optional[StateDict]:
        """Average client updates into the new global model (eq. (1)).

        Returns the new global state.  *expected_count* opts into
        **partial-round aggregation** (the fault-injection path): it is the
        planned cohort size, of which only ``len(client_states)`` survivors
        reported back.  When the survivor fraction falls below
        *min_participation* — or nobody survived — the round is *skipped*:
        the global model is carried forward unchanged,
        :attr:`rounds_skipped` is incremented and ``None`` is returned.
        Without *expected_count* an empty update list is a caller bug and
        raises.
        """
        if expected_count is not None:
            if expected_count < 1:
                raise ValueError("expected_count must be positive when given")
            if not 0.0 <= min_participation <= 1.0:
                raise ValueError("min_participation must lie in [0, 1]")
            participation = len(client_states) / expected_count
            if not client_states or participation < min_participation:
                self.rounds_skipped += 1
                return None
        if not client_states:
            raise ValueError("no client updates to aggregate")
        new_state = average_states(client_states)
        self.global_model.load_state_dict(new_state)
        self.rounds_completed += 1
        return new_state

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, test_set: ArrayDataset) -> dict:
        """Evaluate the current global model on a (uniform) test set.

        The round-persistent batched evaluator reuses its one-client
        parameter stack across rounds; a model that is no layer chain raises
        :class:`~repro.nn.batched.UnvectorizableModelError`.
        """
        if self._evaluator is None:
            self._evaluator = BatchedEvaluator(self.model_factory())
        self._evaluator.load_state(self.global_state(copy=False))
        return self._evaluator.evaluate(test_set)

    def new_client_model(self) -> Module:
        """A fresh model instance for a client (weights loaded by the executor)."""
        return self.model_factory()

    def close(self) -> None:
        """Drop the cached batched evaluator and its test-set cast caches.

        Idempotent; the next :meth:`evaluate` rebuilds the evaluator on
        demand.  Part of the simulation's clean-shutdown path — the batched
        evaluator pins its parameter stack and one float64 cast per test set
        for the server's lifetime, which outlives short-lived runs.
        """
        self._evaluator = None
