"""The Dubhe service layer: typed protocol messages over real sockets.

The paper describes a client/server protocol — encrypted registration,
probability broadcast, selection, update collection — and this package
carries its training half over an actual networked service (the encrypted
registration runs in-process, :mod:`repro.core.secure`), following FedLab's
separation of *process* from *role*:

* :mod:`repro.transport.wire` — the versioned, length-prefixed, CRC-checked
  binary frame format, with a codec for model state dicts;
* :mod:`repro.transport.messages` — the typed round-protocol messages
  (Register, ProbabilityBroadcast, SelectionNotice,
  ModelDelta, RoundResult, ...);
* :mod:`repro.transport.base` — the :class:`Transport` seam the simulation
  speaks to, and :class:`InProcessTransport` wrapping the existing
  sequential / vectorized / parallel executors;
* :mod:`repro.transport.server` — :class:`SocketTransport`, the asyncio TCP
  server driving rounds with bounded send queues, timeouts and partial-round
  completion;
* :mod:`repro.transport.client` — :class:`TransportClient`, a
  :class:`~repro.federated.client.FederatedClient` behind a socket, with
  capped-backoff reconnection and session resumption;
* :mod:`repro.transport.chaos` — :class:`ChaosProxy`, a seeded TCP relay
  that injects the network faults a
  :class:`~repro.scenarios.spec.NetworkSpec` declares (latency, bit-flips,
  truncation, resets, partitions) deterministically per
  ``(round, client, direction, frame)``.

A fault-free localhost round under float64 is bit-identical to the
in-process sequential run — the transport moves bytes, never arithmetic.
"""

from .base import InProcessTransport, Transport, build_transport
from .chaos import ChaosProxy
from .client import TransportClient
from .messages import (
    MESSAGE_TYPES,
    ErrorNotice,
    Heartbeat,
    HeartbeatAck,
    ModelDelta,
    ProbabilityBroadcast,
    Register,
    RegisterAck,
    RoundResult,
    SelectionNotice,
    Shutdown,
    decode_message,
    encode_message,
)
from .server import SocketTransport, TransportClosedError, TransportError
from .wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    CorruptFrameError,
    TruncatedFrameError,
    VersionMismatchError,
    WireError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ChaosProxy",
    "CorruptFrameError",
    "ErrorNotice",
    "Heartbeat",
    "HeartbeatAck",
    "InProcessTransport",
    "MESSAGE_TYPES",
    "ModelDelta",
    "ProbabilityBroadcast",
    "Register",
    "RegisterAck",
    "RoundResult",
    "SelectionNotice",
    "Shutdown",
    "SocketTransport",
    "Transport",
    "TransportClient",
    "TransportClosedError",
    "TransportError",
    "TruncatedFrameError",
    "VersionMismatchError",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "build_transport",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
]
