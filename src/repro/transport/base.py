"""The :class:`Transport` interface and its in-process implementation.

A *transport* is the single seam between :class:`~repro.federated.simulation.
FederatedSimulation` and wherever the selected clients actually run.  Its
contract mirrors :meth:`repro.federated.executor.LocalUpdateExecutor.run_round`
exactly — same arguments, same survivor-ordering semantics, same telemetry
attributes — so the simulation's round loop is transport-agnostic:

* :class:`InProcessTransport` wraps the existing
  :class:`~repro.federated.executor.LocalUpdateExecutor` (sequential /
  vectorized / parallel back-ends) with zero overhead;
* :class:`~repro.transport.server.SocketTransport` drives the same round
  over localhost (or real) TCP sockets against
  :class:`~repro.transport.client.TransportClient` peers.

Both produce bit-identical survivor states under float64 on a fault-free
round — the contract the loopback tests assert.

:func:`build_transport` maps a :class:`~repro.core.config.TransportConfig`
(plus a ready in-process executor) to the right implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.config import TransportConfig
from ..federated.client import FederatedClient, LocalTrainingConfig
from ..federated.executor import LocalUpdateExecutor
from ..nn.module import Module

__all__ = ["InProcessTransport", "Transport", "build_transport"]

StateDict = dict[str, np.ndarray]


class Transport(ABC):
    """Where a round's local updates run: in process, or across sockets.

    Implementations must honour the executor contract: ``run_round`` returns
    the *survivors'* states in cohort order, and the telemetry attributes
    :attr:`last_round_failures` (cohort position → failure cause),
    :attr:`last_round_delay` (simulated/observed round duration) and
    :attr:`last_fallback_reason` describe the most recent round.

    Example
    -------
    >>> from repro.core.config import TransportConfig
    >>> transport = build_transport(TransportConfig(kind="inprocess"))
    >>> transport.last_round_failures
    {}
    """

    def __init__(self) -> None:
        #: failures of the most recent round: cohort position -> cause
        self.last_round_failures: dict[int, str] = {}
        #: duration of the most recent round (simulated delay in process,
        #: wall-clock straggler time over sockets)
        self.last_round_delay: float = 0.0
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
    def run_round(self, clients: Sequence[FederatedClient],
                  model_factory: Callable[[], Module],
                  global_state: StateDict,
                  config: LocalTrainingConfig,
                  round_index: int = 0,
                  faults=None) -> "list[StateDict]":
        """Train the cohort from *global_state*; return the survivors' states.

        *faults* is an optional :class:`repro.scenarios.engine.CohortFaults`
        plan (position-keyed); implementations must resolve it to the same
        survivor set the in-process executor would, so scenario outcomes are
        back-end independent.
        """

    @abstractmethod
    def close(self) -> None:
        """Release the transport's resources.  Idempotent."""

    def broadcast_probabilities(self, round_index: int,
                                probabilities: Sequence[float]) -> None:
        """Announce this round's selection probabilities ``q_k`` (optional).

        A no-op in process (every role shares memory); the socket transport
        overrides it with a real
        :class:`~repro.transport.messages.ProbabilityBroadcast`.
        """

    def on_round_complete(self, record) -> None:
        """Observe a finished round's :class:`~repro.federated.history.RoundRecord`.

        A no-op in process; the socket transport overrides it to broadcast
        the :class:`~repro.transport.messages.RoundResult` to every client.
        """


class InProcessTransport(Transport):
    """The existing simulation back-ends behind the :class:`Transport` seam.

    Wraps one :class:`~repro.federated.executor.LocalUpdateExecutor` and
    forwards ``run_round`` verbatim, then mirrors its telemetry — the
    fault-free code path is byte-for-byte the pre-transport behaviour.  The
    wrapped executor stays reachable as :attr:`executor` (the simulation and
    its tests introspect scheduler/workspace state through it).

    Example
    -------
    >>> transport = InProcessTransport(LocalUpdateExecutor("sequential"))
    >>> from repro.federated.client import LocalTrainingConfig
    >>> transport.run_round([], lambda: None, {}, LocalTrainingConfig())
    []
    """

    def __init__(self, executor: LocalUpdateExecutor):
        super().__init__()
        #: the wrapped executor (scheduler/workspace telemetry lives here)
        self.executor = executor

    def run_round(self, clients: Sequence[FederatedClient],
                  model_factory: Callable[[], Module],
                  global_state: StateDict,
                  config: LocalTrainingConfig,
                  round_index: int = 0,
                  faults=None) -> "list[StateDict]":
        """Delegate to the wrapped executor and mirror its telemetry.

        Example
        -------
        >>> transport = InProcessTransport(LocalUpdateExecutor())
        >>> transport.run_round([], lambda: None, {},
        ...                     LocalTrainingConfig())
        []
        """
        states = self.executor.run_round(clients, model_factory, global_state,
                                         config, round_index=round_index,
                                         faults=faults)
        self.last_round_failures = self.executor.last_round_failures
        self.last_round_delay = self.executor.last_round_delay
        self.last_fallback_reason = self.executor.last_fallback_reason
        return states

    def close(self) -> None:
        """Shut down the wrapped executor (idempotent).

        Example
        -------
        >>> transport = InProcessTransport(LocalUpdateExecutor())
        >>> transport.close(); transport.close()
        """
        self.executor.close()


def build_transport(config: Optional[TransportConfig] = None,
                    executor: Optional[LocalUpdateExecutor] = None,
                    network=None, chaos_seed: int = 0) -> Transport:
    """Build the transport *config* asks for.

    ``kind="inprocess"`` wraps *executor* (a
    :class:`~repro.federated.executor.LocalUpdateExecutor`; ``None`` means a
    default sequential one); ``kind="socket"`` starts a
    :class:`~repro.transport.server.SocketTransport` listening on
    ``config.host:config.port`` (port 0 picks a free port).  *network* (a
    :class:`~repro.scenarios.spec.NetworkSpec`) interposes a
    :class:`~repro.transport.chaos.ChaosProxy` seeded with *chaos_seed* in
    front of the socket server; it requires ``kind="socket"``.

    Example
    -------
    >>> from repro.core.config import TransportConfig
    >>> transport = build_transport(TransportConfig(kind="inprocess"),
    ...                             LocalUpdateExecutor("vectorized"))
    >>> transport.executor.mode
    'vectorized'
    """
    config = config or TransportConfig()
    if config.kind == "socket":
        from .server import SocketTransport

        return SocketTransport(config, network=network, chaos_seed=chaos_seed)
    if network is not None:
        raise ValueError(
            "a NetworkSpec needs real sockets: use TransportConfig(kind='socket')")
    return InProcessTransport(executor or LocalUpdateExecutor())
