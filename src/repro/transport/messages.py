"""Typed messages of the Dubhe round protocol.

FedLab separates the *process* (a socket loop) from the *role* (server or
client logic) with an explicit message layer; this module is that layer for
the Dubhe protocol.  One round is the following exchange::

    client                         server
      | -- Register -------------->  |   join the federation
      | <-- RegisterAck -----------  |   acknowledged, cohort position known
      | <-- ProbabilityBroadcast --  |   q_k over the registered cohort
      | <-- SelectionNotice -------  |   you are selected: state + recipe
      | -- ModelDelta ------------>  |   locally trained parameters
      | <-- RoundResult -----------  |   round closed (possibly partial)
      | <-- Shutdown --------------  |   federation is over

plus the liveness pair that runs alongside the round exchange::

      | <-- Heartbeat -------------  |   are you alive?
      | -- HeartbeatAck ---------->  |   yes (connection is not half-open)

:class:`Register` carries a **session token**: empty on a first join, the
previously issued token on a reconnect, letting the server resume the old
session (same cohort position, same round state) instead of treating the
peer as a stranger.  :class:`ModelDelta` echoes the token; the server
accepts one delta per ``(round, client)`` reply, so retransmits after a
reconnect never double-aggregate.

Every message is a frozen dataclass with a one-byte :attr:`TYPE` code and a
``WIRE`` table: its fields in wire order, each paired with a codec (``U32``,
``STR``, ``STATE``, ...) built on the primitives of
:mod:`repro.transport.wire`.  One generic encoder (``to_payload``) and one
generic decoder (``from_payload``) walk that table, so the range check and
the "payload fully consumed" check live in one place.
**Adding a message is one class plus one table**: a
``@dataclass(frozen=True, eq=False)`` subclass of ``_Message`` with a new
``TYPE`` and its ``WIRE`` table joins :data:`MESSAGE_TYPES` by subclassing.
:func:`encode_message` wraps a message into one versioned frame;
:func:`decode_message` is its exact inverse and raises the structured
:class:`~repro.transport.wire.WireError` family on damage, truncation,
trailing bytes or a foreign protocol version.  Type code 3 is retired (the
packed ciphertext upload of wire version 2, which no server folded); a
frame carrying it is refused as an unknown type.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Type

import numpy as np

from ..federated.client import LocalTrainingConfig
from .wire import (
    CorruptFrameError,
    WireReader,
    WireWriter,
    decode_frame,
    encode_frame,
    state_from_wire,
    state_to_wire,
)

__all__ = [
    "ErrorNotice",
    "Heartbeat",
    "HeartbeatAck",
    "MESSAGE_TYPES",
    "ModelDelta",
    "ProbabilityBroadcast",
    "Register",
    "RegisterAck",
    "RoundResult",
    "SelectionNotice",
    "Shutdown",
    "decode_message",
    "encode_message",
]


class _Codec(NamedTuple):
    """How one field crosses the wire: append it, read it back."""

    write: Callable[[WireWriter, Any], Any]
    read: Callable[[WireReader], Any]


def _write_f64s(writer: WireWriter, values) -> None:
    writer.u32(len(values))
    for value in values:
        writer.f64(float(value))


def _write_failures(writer: WireWriter, failures: "Mapping[int, str]") -> None:
    writer.u32(len(failures))
    for client_id in sorted(failures):
        writer.u32(client_id).str(failures[client_id])


def _write_recipe(writer: WireWriter, config: LocalTrainingConfig) -> None:
    max_batches = config.max_batches_per_epoch
    (writer.u32(config.batch_size).u32(config.local_epochs)
     .f64(config.learning_rate).str(config.optimizer)
     .bool(max_batches is not None))
    if max_batches is not None:
        writer.u32(max_batches)


def _read_recipe(reader: WireReader) -> LocalTrainingConfig:
    recipe = dict(batch_size=reader.u32(), local_epochs=reader.u32(),
                  learning_rate=reader.f64(), optimizer=reader.str(),
                  max_batches_per_epoch=reader.u32() if reader.u8() else None)
    try:
        return LocalTrainingConfig(**recipe)
    except ValueError as exc:
        raise CorruptFrameError(f"invalid training recipe on the wire: {exc}")


U32 = _Codec(WireWriter.u32, WireReader.u32)
STR = _Codec(WireWriter.str, WireReader.str)
BOOL = _Codec(WireWriter.bool, WireReader.bool)
OPT_F64 = _Codec(WireWriter.opt_f64, WireReader.opt_f64)
F64_TUPLE = _Codec(_write_f64s,
                   lambda reader: tuple(reader.f64() for _ in range(reader.u32())))
#: client id → failure cause, written in ascending client-id order
FAILURES = _Codec(_write_failures,
                  lambda reader: {reader.u32(): reader.str()
                                  for _ in range(reader.u32())})
RECIPE = _Codec(_write_recipe, _read_recipe)
STATE = _Codec(lambda writer, state: state_to_wire(state, writer),
               state_from_wire)


class _Message:
    """Table-driven encoder and decoder shared by every message."""

    TYPE: int
    WIRE: "tuple[tuple[str, _Codec], ...]"

    def to_payload(self) -> bytes:
        """Serialise to a frame payload, one ``WIRE`` field after another; a
        value the wire cannot carry (an integer outside its range, say) raises
        :class:`ValueError` naming the ``Class.field``."""
        writer = WireWriter()
        for name, codec in self.WIRE:
            try:
                codec.write(writer, getattr(self, name))
            except (struct.error, ValueError) as exc:
                raise ValueError(f"{type(self).__name__}.{name}: {exc}") from None
        return writer.getvalue()

    @classmethod
    def from_payload(cls, payload: bytes):
        """Parse from a frame payload; bytes left after the last field are damage."""
        reader = WireReader(payload)
        values = {name: codec.read(reader) for name, codec in cls.WIRE}
        if not reader.exhausted():
            raise CorruptFrameError(f"{cls.__name__} payload has trailing bytes")
        return cls(**values)


@dataclass(frozen=True, eq=False)
class Register(_Message):
    """Client → server: join the federation.

    ``token`` is empty on a first join; on a reconnect the client echoes
    the token from its last :class:`RegisterAck`, asking the server to
    resume the existing session (cohort position, in-flight round) instead
    of registering a stranger.

    Example
    -------
    >>> msg = Register(client_id=3, num_classes=10, num_samples=120)
    >>> decode_message(encode_message(msg))[0]
    Register(client_id=3, num_classes=10, num_samples=120, token='')
    """

    TYPE = 1
    WIRE = (("client_id", U32), ("num_classes", U32), ("num_samples", U32),
            ("token", STR))

    client_id: int
    num_classes: int
    num_samples: int
    token: str = ""


@dataclass(frozen=True, eq=False)
class RegisterAck(_Message):
    """Server → client: registration accepted, cohort position assigned.

    ``token`` is the session token the client must echo in subsequent
    :class:`Register` (reconnect) and :class:`ModelDelta` messages;
    ``resumed`` tells the client whether an existing session was resumed
    (its in-flight round, if any, is being replayed) or a fresh one opened.

    Example
    -------
    >>> ack = RegisterAck(client_id=3, position=0, cohort_size=4)
    >>> decode_message(encode_message(ack))[0]
    RegisterAck(client_id=3, position=0, cohort_size=4, token='', resumed=False)
    """

    TYPE = 2
    WIRE = (("client_id", U32), ("position", U32), ("cohort_size", U32),
            ("token", STR), ("resumed", BOOL))

    client_id: int
    position: int
    cohort_size: int
    token: str = ""
    resumed: bool = False


@dataclass(frozen=True, eq=False)
class ProbabilityBroadcast(_Message):
    """Server → clients: the selection probabilities ``q_k`` for this round.

    Example
    -------
    >>> msg = ProbabilityBroadcast(round_index=2, probabilities=(0.5, 0.5))
    >>> decode_message(encode_message(msg))[0].probabilities
    (0.5, 0.5)
    """

    TYPE = 4
    WIRE = (("round_index", U32), ("probabilities", F64_TUPLE))

    round_index: int
    probabilities: "tuple[float, ...]"


@dataclass(frozen=True, eq=False)
class SelectionNotice(_Message):
    """Server → one selected client: train on this state with this recipe.

    Carries the global model state, the local-training hyper-parameters and
    the round deadline — everything the client executor needs to produce a
    :class:`ModelDelta`.

    Example
    -------
    >>> import numpy as np
    >>> notice = SelectionNotice(round_index=1, client_id=3,
    ...                          config=LocalTrainingConfig(),
    ...                          state={"w": np.zeros(2)}, deadline=30.0)
    >>> back = decode_message(encode_message(notice))[0]
    >>> back.client_id, back.config.batch_size
    (3, 8)
    """

    TYPE = 5
    WIRE = (("round_index", U32), ("client_id", U32), ("deadline", OPT_F64),
            ("config", RECIPE), ("state", STATE))

    round_index: int
    client_id: int
    config: LocalTrainingConfig
    state: "Mapping[str, np.ndarray]"
    deadline: Optional[float] = None


@dataclass(frozen=True, eq=False)
class ModelDelta(_Message):
    """Client → server: locally trained parameters for one round.

    ``token`` echoes the session token from :class:`RegisterAck`.  The
    server accepts one delta per ``(round, client)`` reply and counts any
    later one as a duplicate: a client that reconnects mid-round and resends
    its delta is aggregated exactly once.

    Example
    -------
    >>> import numpy as np
    >>> delta = ModelDelta(round_index=0, client_id=1,
    ...                    state={"w": np.ones(3, dtype=np.float32)})
    >>> decode_message(encode_message(delta))[0].state["w"].dtype.name
    'float32'
    """

    TYPE = 6
    WIRE = (("round_index", U32), ("client_id", U32), ("token", STR),
            ("state", STATE))

    round_index: int
    client_id: int
    state: "Mapping[str, np.ndarray]"
    token: str = ""


@dataclass(frozen=True, eq=False)
class RoundResult(_Message):
    """Server → clients: the round closed (fully or partially).

    ``failures`` maps client id → failure cause (one of
    :data:`repro.scenarios.engine.FAILURE_CAUSES`); a non-empty map means the
    round completed partially under the scenario's ``min_participation``
    skip policy.

    Example
    -------
    >>> result = RoundResult(round_index=1, skipped=False, accuracy=0.5,
    ...                      failures={3: "straggler"})
    >>> decode_message(encode_message(result))[0].failures
    {3: 'straggler'}
    """

    TYPE = 7
    WIRE = (("round_index", U32), ("skipped", BOOL), ("accuracy", OPT_F64),
            ("failures", FAILURES))

    round_index: int
    skipped: bool
    accuracy: Optional[float] = None
    failures: "Dict[int, str]" = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Shutdown(_Message):
    """Server → clients: the federation is over, close the connection.

    Example
    -------
    >>> decode_message(encode_message(Shutdown("done")))[0].reason
    'done'
    """

    TYPE = 8
    WIRE = (("reason", STR),)

    reason: str = "complete"


@dataclass(frozen=True, eq=False)
class ErrorNotice(_Message):
    """Either direction: a structured protocol error (kept on the wire so a
    peer can distinguish "you were rejected" from a dead socket).

    Example
    -------
    >>> decode_message(encode_message(ErrorNotice("bad tag")))[0].detail
    'bad tag'
    """

    TYPE = 9
    WIRE = (("detail", STR),)

    detail: str


@dataclass(frozen=True, eq=False)
class Heartbeat(_Message):
    """Server → client: liveness probe (detects half-open connections).

    ``seq`` is a per-connection sequence number; the client echoes it back
    in a :class:`HeartbeatAck`.  A connection that stays silent for
    :data:`repro.transport.server.HEARTBEAT_LIMIT` heartbeat intervals is
    declared dead and torn down well before the round deadline.

    Example
    -------
    >>> decode_message(encode_message(Heartbeat(seq=4)))[0].seq
    4
    """

    TYPE = 10
    WIRE = (("seq", U32),)

    seq: int


@dataclass(frozen=True, eq=False)
class HeartbeatAck(_Message):
    """Client → server: liveness probe answered, connection is healthy.

    Example
    -------
    >>> decode_message(encode_message(HeartbeatAck(seq=4)))[0].seq
    4
    """

    TYPE = 11
    WIRE = (("seq", U32),)

    seq: int


#: One-byte type code → message class (every ``_Message`` subclass).
MESSAGE_TYPES: "Dict[int, Type[_Message]]" = {
    cls.TYPE: cls for cls in _Message.__subclasses__()
}


def encode_message(message) -> bytes:
    """One complete wire frame around *message*.

    Example
    -------
    >>> frame = encode_message(Shutdown())
    >>> isinstance(decode_message(frame)[0], Shutdown)
    True
    """
    return encode_frame(message.TYPE, message.to_payload())


def decode_message(buffer: bytes):
    """Decode one message from the head of *buffer*.

    Returns ``(message, bytes_consumed)``.  Raises the structured
    :class:`~repro.transport.wire.WireError` subclasses on truncation,
    damage, an unknown type code or a foreign protocol version.

    Example
    -------
    >>> message, used = decode_message(encode_message(Register(1, 10, 8)))
    >>> message.num_classes
    10
    """
    msg_type, payload, consumed = decode_frame(buffer)
    try:
        cls = MESSAGE_TYPES[msg_type]
    except KeyError:
        raise CorruptFrameError(f"unknown message type code {msg_type}")
    return cls.from_payload(payload), consumed
