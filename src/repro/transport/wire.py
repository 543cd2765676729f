"""Versioned, length-prefixed binary wire format of the service layer.

Every message of the Dubhe round protocol crosses the network as one
**frame**::

    magic(2) | version(1) | msg_type(1) | payload_len(4, big-endian)
    | payload(payload_len) | crc32(4, big-endian)

The CRC covers the header *and* the payload, so a flipped bit anywhere in
the frame is detected before the payload is parsed.  :func:`read_frame` is
the one asyncio frame reader the server, the client and the chaos proxy
share.  Decoding failures are *structured*: a frame cut short raises
:class:`TruncatedFrameError`, damage raises :class:`CorruptFrameError`, and
a frame stamped with a different protocol version raises
:class:`VersionMismatchError` — a v2 server never misinterprets a v1
client, it rejects it with a nameable cause.

Payloads are built from three codecs, all exact inverses of their decoders:

* **primitives** — :class:`WireWriter` / :class:`WireReader` serialise
  integers, floats, strings and raw byte strings (big-endian, length
  prefixed);
* **model state** — :func:`state_to_wire` / :func:`state_from_wire` pack a
  state dict (parameter name → ndarray) preserving dtype (float32 and
  float64 alike) and shape bit-for-bit, which is what keeps a localhost
  round bit-identical to the in-process one;
* **packed ciphertexts** — :func:`packed_to_wire` / :func:`packed_from_wire`
  ship a :class:`~repro.crypto.packing.PackedEncryptedVector` together with
  the public key and fixed-point geometry needed to reconstruct it, reusing
  the ciphertext layout of
  :meth:`~repro.crypto.packing.PackedEncryptedVector.to_bytes`.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Mapping, Optional

import numpy as np

from ..crypto.packing import PackedEncryptedVector, PackingScheme
from ..crypto.paillier import PaillierPublicKey

__all__ = [
    "CorruptFrameError",
    "DEFAULT_MAX_FRAME_BYTES",
    "TruncatedFrameError",
    "VersionMismatchError",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "WireReader",
    "WireWriter",
    "decode_frame",
    "encode_frame",
    "frame_header",
    "packed_from_wire",
    "packed_to_wire",
    "read_frame",
    "state_from_wire",
    "state_to_wire",
]

#: Two magic bytes opening every frame ("DU" for Dubhe).
WIRE_MAGIC = b"DU"

#: Protocol version stamped into every frame.  Bump on any incompatible
#: change to the frame layout or a message payload; peers reject frames
#: stamped with any other version (:class:`VersionMismatchError`).
#: v2: session tokens on Register/RegisterAck/ModelDelta and the
#: Heartbeat/HeartbeatAck liveness pair.
WIRE_VERSION = 2

#: Frame layout: magic, version, msg_type, payload length.
_HEADER = struct.Struct(">2sBBI")

#: Trailing CRC32 of header + payload.
_CRC = struct.Struct(">I")

#: Default cap on a single frame's payload (256 MiB).  A corrupt length
#: field must never turn into an unbounded allocation.
DEFAULT_MAX_FRAME_BYTES = 1 << 28


class WireError(ValueError):
    """Base class of every structured wire-format failure."""


class TruncatedFrameError(WireError):
    """The buffer ends before the frame does (wait for more bytes)."""


class CorruptFrameError(WireError):
    """The frame is damaged: bad magic, failed CRC, or an impossible field."""


class VersionMismatchError(WireError):
    """The frame was produced by a different protocol version."""


# -- framing -------------------------------------------------------------------------


def encode_frame(msg_type: int, payload: bytes,
                 version: int = WIRE_VERSION) -> bytes:
    """One complete wire frame around *payload*.

    Example
    -------
    >>> frame = encode_frame(7, b"hello")
    >>> decode_frame(frame)[:2]
    (7, b'hello')
    """
    if not 0 <= msg_type <= 255:
        raise ValueError("msg_type must fit one byte")
    header = _HEADER.pack(WIRE_MAGIC, version, msg_type, len(payload))
    crc = zlib.crc32(header) ^ zlib.crc32(payload)
    return header + payload + _CRC.pack(crc & 0xFFFFFFFF)


def frame_header(buffer: bytes,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 ) -> "tuple[int, int]":
    """Parse a frame's header: ``(msg_type, payload_len)``.

    Raises :class:`TruncatedFrameError` when fewer than the 8 header bytes
    are available, and validates magic, version and the payload-length cap
    without needing the payload itself — this is what the asyncio reader
    uses to know how many more bytes to await.

    Example
    -------
    >>> frame_header(encode_frame(3, b"xy"))
    (3, 2)
    """
    if len(buffer) < _HEADER.size:
        raise TruncatedFrameError(
            f"frame header needs {_HEADER.size} bytes, got {len(buffer)}"
        )
    magic, version, msg_type, length = _HEADER.unpack_from(buffer)
    if magic != WIRE_MAGIC:
        raise CorruptFrameError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise VersionMismatchError(
            f"frame speaks protocol version {version}, this peer speaks "
            f"{WIRE_VERSION}"
        )
    if length > max_frame_bytes:
        raise CorruptFrameError(
            f"frame claims a {length}-byte payload, above the "
            f"{max_frame_bytes}-byte cap"
        )
    return msg_type, length


def decode_frame(buffer: bytes,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 ) -> "tuple[int, bytes, int]":
    """Decode one frame from the head of *buffer*.

    Returns ``(msg_type, payload, bytes_consumed)``.  An incomplete frame
    raises :class:`TruncatedFrameError` (retry with more bytes); any damage
    raises :class:`CorruptFrameError`; a foreign protocol version raises
    :class:`VersionMismatchError`.

    Example
    -------
    >>> msg_type, payload, used = decode_frame(encode_frame(9, b"abc") + b"rest")
    >>> (msg_type, payload, used)
    (9, b'abc', 15)
    """
    msg_type, length = frame_header(buffer, max_frame_bytes)
    total = _HEADER.size + length + _CRC.size
    if len(buffer) < total:
        raise TruncatedFrameError(
            f"frame needs {total} bytes, got {len(buffer)}"
        )
    payload = bytes(buffer[_HEADER.size:_HEADER.size + length])
    (expected_crc,) = _CRC.unpack_from(buffer, _HEADER.size + length)
    actual_crc = (zlib.crc32(buffer[:_HEADER.size]) ^ zlib.crc32(payload)) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise CorruptFrameError(
            f"frame CRC mismatch: header+payload hash to {actual_crc:#010x}, "
            f"frame carries {expected_crc:#010x}"
        )
    return msg_type, payload, total


async def read_frame(reader: asyncio.StreamReader,
                     max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                     ) -> "tuple[int, memoryview, bytes]":
    """Read one whole frame off a stream: ``(msg_type, payload, frame)``.

    The header (magic, version, length cap) is validated before the payload
    is awaited, so a hostile length prefix never becomes an allocation.  The
    CRC is left to :func:`decode_frame` on the returned *frame*, which a
    relay may instead forward untouched; *payload* is a view into *frame*,
    not a copy.

    Example
    -------
    >>> async def first_frame():
    ...     stream = asyncio.StreamReader()
    ...     stream.feed_data(encode_frame(4, b"hi"))
    ...     msg_type, payload, frame = await read_frame(stream)
    ...     return msg_type, bytes(payload), len(frame)
    >>> asyncio.run(first_frame())
    (4, b'hi', 14)
    """
    header = await reader.readexactly(_HEADER.size)
    msg_type, length = frame_header(header, max_frame_bytes)
    frame = header + await reader.readexactly(length + _CRC.size)
    return msg_type, memoryview(frame)[_HEADER.size:_HEADER.size + length], frame


# -- primitive payload codec ---------------------------------------------------------


class WireWriter:
    """Appends primitives to a payload buffer (all big-endian, length-prefixed).

    Example
    -------
    >>> writer = WireWriter()
    >>> writer.u32(7).str("dubhe").f64(0.5)  # doctest: +ELLIPSIS
    <repro.transport.wire.WireWriter object at ...>
    >>> WireReader(writer.getvalue()).u32()
    7
    """

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def u8(self, value: int) -> "WireWriter":
        """Append one unsigned byte.

        Example
        -------
        >>> WireReader(WireWriter().u8(255).getvalue()).u8()
        255
        """
        self._chunks.append(struct.pack(">B", value))
        return self

    def u32(self, value: int) -> "WireWriter":
        """Append one unsigned 32-bit integer.

        Example
        -------
        >>> WireReader(WireWriter().u32(1 << 20).getvalue()).u32()
        1048576
        """
        self._chunks.append(struct.pack(">I", value))
        return self

    def u64(self, value: int) -> "WireWriter":
        """Append one unsigned 64-bit integer.

        Example
        -------
        >>> WireReader(WireWriter().u64(1 << 40).getvalue()).u64()
        1099511627776
        """
        self._chunks.append(struct.pack(">Q", value))
        return self

    def f64(self, value: float) -> "WireWriter":
        """Append one IEEE-754 float64 (NaN round-trips bit-exactly).

        Example
        -------
        >>> WireReader(WireWriter().f64(0.25).getvalue()).f64()
        0.25
        """
        self._chunks.append(struct.pack(">d", value))
        return self

    def opt_f64(self, value: "Optional[float]") -> "WireWriter":
        """Append an optional float64 (presence byte + value).

        Example
        -------
        >>> WireReader(WireWriter().opt_f64(None).getvalue()).opt_f64() is None
        True
        """
        if value is None:
            return self.u8(0)
        return self.u8(1).f64(float(value))

    def bool(self, value: bool) -> "WireWriter":
        """Append one boolean byte.

        Example
        -------
        >>> WireReader(WireWriter().bool(True).getvalue()).bool()
        True
        """
        return self.u8(1 if value else 0)

    def bytes(self, value: bytes) -> "WireWriter":
        """Append a length-prefixed byte string.

        Example
        -------
        >>> WireReader(WireWriter().bytes(b"ct").getvalue()).bytes()
        b'ct'
        """
        self._chunks.append(struct.pack(">I", len(value)))
        self._chunks.append(value)
        return self

    def str(self, value: str) -> "WireWriter":
        """Append a length-prefixed UTF-8 string.

        Example
        -------
        >>> WireReader(WireWriter().str("straggler").getvalue()).str()
        'straggler'
        """
        return self.bytes(value.encode("utf-8"))

    def bigint(self, value: int) -> "WireWriter":
        """Append an arbitrary-precision non-negative integer (ciphertexts, moduli).

        Example
        -------
        >>> WireReader(WireWriter().bigint(1 << 300).getvalue()).bigint() == 1 << 300
        True
        """
        if value < 0:
            raise ValueError("bigint fields are non-negative")
        width = max(1, (value.bit_length() + 7) // 8)
        return self.bytes(value.to_bytes(width, "big"))

    def getvalue(self) -> bytes:
        """The accumulated payload.

        Example
        -------
        >>> WireWriter().u8(1).getvalue()
        b'\\x01'
        """
        return b"".join(self._chunks)


class WireReader:
    """Consumes primitives from a payload buffer, mirroring :class:`WireWriter`.

    Overrunning the buffer raises :class:`CorruptFrameError` — a payload
    that parses short is damage, not a partial read (framing already
    guaranteed the full payload is present).

    Example
    -------
    >>> reader = WireReader(WireWriter().u32(3).str("ok").getvalue())
    >>> reader.u32(), reader.str()
    (3, 'ok')
    """

    def __init__(self, payload: bytes):
        self._payload = payload
        self._offset = 0

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._payload):
            raise CorruptFrameError(
                f"payload overrun: needed {count} bytes at offset "
                f"{self._offset} of a {len(self._payload)}-byte payload"
            )
        view = self._payload[self._offset:self._offset + count]
        self._offset += count
        return view

    def u8(self) -> int:
        """Read one unsigned byte.

        Example
        -------
        >>> WireReader(b"\\x07").u8()
        7
        """
        return struct.unpack(">B", self._take(1))[0]

    def u32(self) -> int:
        """Read one unsigned 32-bit integer.

        Example
        -------
        >>> WireReader(WireWriter().u32(12).getvalue()).u32()
        12
        """
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        """Read one unsigned 64-bit integer.

        Example
        -------
        >>> WireReader(WireWriter().u64(12).getvalue()).u64()
        12
        """
        return struct.unpack(">Q", self._take(8))[0]

    def f64(self) -> float:
        """Read one float64.

        Example
        -------
        >>> WireReader(WireWriter().f64(-1.5).getvalue()).f64()
        -1.5
        """
        return struct.unpack(">d", self._take(8))[0]

    def opt_f64(self) -> "Optional[float]":
        """Read an optional float64 written by :meth:`WireWriter.opt_f64`.

        Example
        -------
        >>> WireReader(WireWriter().opt_f64(2.0).getvalue()).opt_f64()
        2.0
        """
        return self.f64() if self.u8() else None

    def bool(self) -> bool:
        """Read one boolean byte.

        Example
        -------
        >>> WireReader(WireWriter().bool(False).getvalue()).bool()
        False
        """
        return bool(self.u8())

    def bytes(self) -> bytes:
        """Read a length-prefixed byte string.

        Example
        -------
        >>> WireReader(WireWriter().bytes(b"zz").getvalue()).bytes()
        b'zz'
        """
        return bytes(self._take(self.u32()))

    def str(self) -> str:
        """Read a length-prefixed UTF-8 string.

        Example
        -------
        >>> WireReader(WireWriter().str("hi").getvalue()).str()
        'hi'
        """
        try:
            return self.bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFrameError(f"invalid UTF-8 in string field: {exc}")

    def bigint(self) -> int:
        """Read an arbitrary-precision integer written by :meth:`WireWriter.bigint`.

        Example
        -------
        >>> WireReader(WireWriter().bigint(99).getvalue()).bigint()
        99
        """
        return int.from_bytes(self.bytes(), "big")

    def exhausted(self) -> bool:
        """Whether every payload byte has been consumed.

        Example
        -------
        >>> WireReader(b"").exhausted()
        True
        """
        return self._offset == len(self._payload)


# -- model state ---------------------------------------------------------------------

#: dtypes a model state / delta may carry on the wire (the cohort runtime's
#: float pair plus the integer types evaluation metadata can use)
_STATE_DTYPES = ("float64", "float32", "int64", "int32")


def state_to_wire(state: "Mapping[str, np.ndarray]", writer: Optional[WireWriter] = None) -> bytes:
    """Serialise a state dict preserving dtype and shape bit-for-bit.

    Arrays are shipped big-endian; float32 and float64 parameters both
    round-trip exactly (no casts), which is what keeps the socket transport
    bit-identical to the in-process back-ends.

    Example
    -------
    >>> import numpy as np
    >>> blob = state_to_wire({"w": np.ones((2, 1), dtype=np.float32)})
    >>> state_from_wire(blob)["w"].dtype.name
    'float32'
    """
    out = writer or WireWriter()
    out.u32(len(state))
    for name in state:
        array = np.asarray(state[name])
        if array.dtype.name not in _STATE_DTYPES:
            raise ValueError(
                f"state array {name!r} has dtype {array.dtype.name}; the "
                f"wire format carries {_STATE_DTYPES}"
            )
        out.str(name)
        out.str(array.dtype.name)
        out.u8(array.ndim)
        for dim in array.shape:
            out.u32(dim)
        big = array.astype(array.dtype.newbyteorder(">"), copy=False)
        out.bytes(np.ascontiguousarray(big).tobytes())
    return out.getvalue() if writer is None else b""


def state_from_wire(payload: "bytes | WireReader") -> "dict[str, np.ndarray]":
    """Inverse of :func:`state_to_wire`.

    Example
    -------
    >>> import numpy as np
    >>> state = {"b": np.arange(3, dtype=np.float64)}
    >>> state_from_wire(state_to_wire(state))["b"].tolist()
    [0.0, 1.0, 2.0]
    """
    reader = payload if isinstance(payload, WireReader) else WireReader(payload)
    count = reader.u32()
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = reader.str()
        dtype_name = reader.str()
        if dtype_name not in _STATE_DTYPES:
            raise CorruptFrameError(
                f"state array {name!r} claims dtype {dtype_name!r}"
            )
        ndim = reader.u8()
        shape = tuple(reader.u32() for _ in range(ndim))
        dtype = np.dtype(dtype_name)
        raw = reader.bytes()
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if len(raw) != expected:
            raise CorruptFrameError(
                f"state array {name!r} carries {len(raw)} bytes, shape "
                f"{shape} needs {expected}"
            )
        array = np.frombuffer(raw, dtype=dtype.newbyteorder(">")).reshape(shape)
        state[name] = array.astype(dtype)
    return state


# -- packed ciphertexts --------------------------------------------------------------


def packed_to_wire(vector: PackedEncryptedVector,
                   writer: Optional[WireWriter] = None) -> bytes:
    """Serialise a packed encrypted vector with its full scheme geometry.

    Ships the Paillier modulus, the fixed-point geometry (base, precision,
    per-addend offset bound) and the packing headroom next to the raw
    ciphertexts, so the receiver reconstructs a *compatible* scheme — the
    round-trip preserves ciphertexts, weight and slot layout exactly.

    Example
    -------
    >>> from repro.crypto import generate_keypair
    >>> public, private = generate_keypair(key_size=256)
    >>> vec = PackedEncryptedVector.encrypt(public, [0.5, -0.25])
    >>> packed_from_wire(packed_to_wire(vec)).decrypt(private).tolist()
    [0.5, -0.25]
    """
    out = writer or WireWriter()
    scheme = vector.scheme
    out.bigint(vector.public_key.n)
    out.u32(scheme.vector_length)
    out.u32(scheme.max_weight)
    out.u32(scheme.base)
    out.u32(scheme.precision)
    out.u64(scheme.offset)
    out.u32(scheme.slot_bits)
    out.u32(vector.weight)
    out.u32(len(vector.ciphertexts))
    for ciphertext in vector.ciphertexts:
        out.bigint(ciphertext)
    return out.getvalue() if writer is None else b""


def packed_from_wire(payload: "bytes | WireReader") -> PackedEncryptedVector:
    """Inverse of :func:`packed_to_wire`.

    The scheme is rebuilt from the wire fields and cross-checked: a payload
    whose slot geometry does not reproduce under the shipped base/precision
    is rejected as corrupt rather than silently mis-decoded.

    Example
    -------
    >>> from repro.crypto import generate_keypair
    >>> public, _ = generate_keypair(key_size=256)
    >>> vec = PackedEncryptedVector.encrypt(public, [0.125] * 5)
    >>> len(packed_from_wire(packed_to_wire(vec)))
    5
    """
    reader = payload if isinstance(payload, WireReader) else WireReader(payload)
    n = reader.bigint()
    vector_length = reader.u32()
    max_weight = reader.u32()
    base = reader.u32()
    precision = reader.u32()
    offset = reader.u64()
    slot_bits = reader.u32()
    weight = reader.u32()
    count = reader.u32()
    ciphertexts = [reader.bigint() for _ in range(count)]
    try:
        public_key = PaillierPublicKey(n)
        # max_abs_value reconstructs the offset: offset = ceil(m * scale) + 1
        max_abs_value = (offset - 1) / (base ** precision)
        scheme = PackingScheme(public_key, vector_length,
                               max_weight=max_weight, base=base,
                               precision=precision,
                               max_abs_value=max(max_abs_value, 1e-12))
    except (ValueError, OverflowError) as exc:
        raise CorruptFrameError(f"packed vector geometry is invalid: {exc}")
    if scheme.offset != offset or scheme.slot_bits != slot_bits:
        raise CorruptFrameError(
            f"packed vector geometry does not reproduce: wire "
            f"(offset={offset}, slot_bits={slot_bits}), derived "
            f"(offset={scheme.offset}, slot_bits={scheme.slot_bits})"
        )
    if count != scheme.num_ciphertexts:
        raise CorruptFrameError(
            f"packed vector carries {count} ciphertexts, scheme needs "
            f"{scheme.num_ciphertexts}"
        )
    try:
        return PackedEncryptedVector(scheme, ciphertexts, weight=weight)
    except ValueError as exc:
        raise CorruptFrameError(f"packed vector rejected: {exc}")
