"""The :class:`Transport` interface: where a round's local updates run.

A *transport* is the single seam between :class:`~repro.federated.simulation.
FederatedSimulation` and wherever the selected clients actually run.  Every
implementation takes the same arguments and returns the same
:class:`RoundOutcome` — the survivors' states in cohort order plus what the
transport saw of the round — so the simulation's round loop is
transport-agnostic:

* :class:`~repro.federated.executor.LocalUpdateExecutor` *is* the in-process
  transport (sequential / vectorized back-ends);
* :class:`~repro.transport.server.SocketTransport` drives the same round
  over localhost (or real) TCP sockets against
  :class:`~repro.transport.client.TransportClient` peers.

A transport only trains and returns states.  The simulation decides a
round's bookkeeping — which clients the fault plan fails, the simulated
round delay, the :class:`~repro.federated.history.RoundRecord` — and hands
the transport just the cohort positions to leave out.  A transport reports
only the failures it observes itself (over sockets: a deadline miss
``"straggler"``, a vanished peer ``"offline"``), and it reports them in the
outcome it returns, never on an attribute a later round overwrites.

Both produce bit-identical survivor states under float64 — the contract the
loopback and fault-record tests assert.

:func:`build_transport` maps a :class:`~repro.core.config.TransportConfig`
(plus a ready in-process executor) to the right implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Collection, Mapping, Optional,
                    Sequence)

import numpy as np

from ..core.config import TransportConfig

if TYPE_CHECKING:  # the executor subclasses Transport: no runtime import
    from ..federated.client import FederatedClient, LocalTrainingConfig
    from ..federated.executor import LocalUpdateExecutor
    from ..nn.module import Module

__all__ = ["RoundOutcome", "Transport", "build_transport"]

StateDict = dict[str, np.ndarray]


@dataclass(frozen=True)
class RoundOutcome:
    """What one :meth:`Transport.run_round` produced.

    ``states`` are the survivors' states in cohort order.  ``failures``
    maps a cohort position to the cause of a failure the transport observed
    itself (never one the fault plan already decided).  ``fallback_reason``
    says why the round left its usual path — a ragged cohort trained one
    client at a time, a broadcast that timed out, a peer's error notice.
    ``decode_failures`` (client id → undecodable frames, -1 for a peer that
    never registered) and ``disconnects`` (client id → cause) are filled
    only over sockets, with what happened since the previous outcome — an
    event between two rounds is on the later round's outcome.

    Example
    -------
    >>> outcome = RoundOutcome(states=[])
    >>> outcome.failures, outcome.fallback_reason
    ({}, None)
    """

    states: Sequence[StateDict]
    failures: Mapping[int, str] = field(default_factory=dict)
    fallback_reason: Optional[str] = None
    decode_failures: Mapping[int, int] = field(default_factory=dict)
    disconnects: Mapping[int, str] = field(default_factory=dict)


class Transport(ABC):
    """Where a round's local updates run: in process, or across sockets.

    ``run_round`` returns the round's :class:`RoundOutcome`; a transport
    keeps no per-round state that a caller has to read afterwards.

    Example
    -------
    >>> from repro.core.config import TransportConfig
    >>> transport = build_transport(TransportConfig(kind="inprocess"))
    >>> transport.run_round([], lambda: None, {}, None).states
    []
    """

    @abstractmethod
    def run_round(self, clients: "Sequence[FederatedClient]",
                  model_factory: "Callable[[], Module]",
                  global_state: StateDict,
                  config: "LocalTrainingConfig",
                  round_index: int = 0,
                  failed: Collection[int] = ()) -> RoundOutcome:
        """Train the cohort from *global_state*; return the round's outcome.

        *failed* holds the cohort positions the round's fault plan has
        already failed; their states are never returned.
        """

    def close(self) -> None:
        """Release the transport's resources.  Idempotent.

        A no-op in process, where the executor holds no process, socket or
        thread; the socket transport overrides it to stop its server.
        """

    def broadcast_probabilities(self, round_index: int,
                                probabilities: np.ndarray) -> None:
        """Announce this round's selection probabilities ``q_k`` (optional).

        *probabilities* is the selector's float64 vector, one entry per
        client, passed as is.  A no-op in process (every role shares
        memory); the socket transport overrides it with a real
        :class:`~repro.transport.messages.ProbabilityBroadcast`.
        """

    def on_round_complete(self, record) -> None:
        """Observe a finished round's :class:`~repro.federated.history.RoundRecord`.

        A no-op in process; the socket transport overrides it to broadcast
        the :class:`~repro.transport.messages.RoundResult` to every client.
        """


def build_transport(config: Optional[TransportConfig] = None,
                    executor: "Optional[LocalUpdateExecutor]" = None,
                    network=None, chaos_seed: int = 0) -> Transport:
    """Build the transport *config* asks for.

    ``kind="inprocess"`` returns *executor* (a
    :class:`~repro.federated.executor.LocalUpdateExecutor`; ``None`` means a
    default, vectorized one); ``kind="socket"`` starts a
    :class:`~repro.transport.server.SocketTransport` listening on
    ``config.host:config.port`` (port 0 picks a free port).  *network* (a
    :class:`~repro.scenarios.spec.NetworkSpec`) interposes a
    :class:`~repro.transport.chaos.ChaosProxy` seeded with *chaos_seed* in
    front of the socket server; it requires ``kind="socket"``.

    Example
    -------
    >>> from repro.core.config import TransportConfig
    >>> from repro.federated.executor import LocalUpdateExecutor
    >>> executor = LocalUpdateExecutor("vectorized")
    >>> build_transport(TransportConfig(kind="inprocess"), executor) is executor
    True
    """
    config = config or TransportConfig()
    if config.kind == "socket":
        from .server import SocketTransport

        return SocketTransport(config, network=network, chaos_seed=chaos_seed)
    if network is not None:
        raise ValueError(
            "a NetworkSpec needs real sockets: use TransportConfig(kind='socket')")
    if executor is None:
        from ..federated.executor import LocalUpdateExecutor

        executor = LocalUpdateExecutor()
    return executor
