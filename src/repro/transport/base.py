"""The :class:`Transport` interface: where a round's local updates run.

A *transport* is the single seam between :class:`~repro.federated.simulation.
FederatedSimulation` and wherever the selected clients actually run.  Every
implementation takes the same arguments, returns the survivors' states in
cohort order and exposes the same telemetry attributes, so the simulation's
round loop is transport-agnostic:

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
``"straggler"``, a vanished peer ``"offline"``).

Both produce bit-identical survivor states under float64 — the contract the
loopback and fault-record tests assert.

:func:`build_transport` maps a :class:`~repro.core.config.TransportConfig`
(plus a ready in-process executor) to the right implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Collection, Optional, Sequence

import numpy as np

from ..core.config import TransportConfig

if TYPE_CHECKING:  # the executor subclasses Transport: no runtime import
    from ..federated.client import FederatedClient, LocalTrainingConfig
    from ..federated.executor import LocalUpdateExecutor
    from ..nn.module import Module

__all__ = ["Transport", "build_transport"]

StateDict = dict[str, np.ndarray]


class Transport(ABC):
    """Where a round's local updates run: in process, or across sockets.

    ``run_round`` returns the *survivors'* states in cohort order; the
    telemetry attributes :attr:`last_round_failures` (cohort position →
    cause, for failures the transport observed itself),
    :attr:`last_fallback_reason`, :attr:`last_round_decode_failures` and
    :attr:`last_round_disconnects` describe the most recent round.

    Example
    -------
    >>> from repro.core.config import TransportConfig
    >>> transport = build_transport(TransportConfig(kind="inprocess"))
    >>> transport.last_round_failures
    {}
    """

    def __init__(self) -> None:
        #: failures the transport observed in the most recent round: cohort
        #: position -> cause; always empty in process
        self.last_round_failures: dict[int, str] = {}
        #: why the most recent round fell back to a slower back-end (or None)
        self.last_fallback_reason: Optional[str] = None
        #: undecodable frames of the most recent round: client id -> count
        #: (-1 keys frames from peers that never finished registering);
        #: always empty in process
        self.last_round_decode_failures: dict[int, int] = {}
        #: connection losses of the most recent round: client id -> cause;
        #: always empty in process
        self.last_round_disconnects: dict[int, str] = {}

    @abstractmethod
    def run_round(self, clients: "Sequence[FederatedClient]",
                  model_factory: "Callable[[], Module]",
                  global_state: StateDict,
                  config: "LocalTrainingConfig",
                  round_index: int = 0,
                  failed: Collection[int] = ()) -> "list[StateDict]":
        """Train the cohort from *global_state*; return the survivors' states.

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
