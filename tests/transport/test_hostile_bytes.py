"""Fuzzing the server's trust boundary with hostile byte streams.

Whatever a peer writes into the socket — a frame cut off mid-header, a
length prefix promising gigabytes, random bit-flips over a valid frame, or
plain noise — the server must (1) never crash its event loop, (2) never
hang a reader task, (3) answer decodable-but-damaged frames with a
structured :class:`~repro.transport.messages.ErrorNotice` and a counted
decode failure, and (4) keep serving well-formed clients on fresh
connections.  Hypothesis drives the hostile inputs; after every example the
same live server must still complete a full register handshake.
"""

import socket

import pytest
from strategies import STANDARD, scaled_max_examples
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TransportConfig
from repro.transport import SocketTransport
from repro.transport.messages import (
    Register,
    RegisterAck,
    decode_message,
    encode_message,
)
from repro.transport.wire import DEFAULT_MAX_FRAME_BYTES, frame_header

#: a sacrificial id space for the fuzzer's handshake probes, far away from
#: any id the hostile frames might carry
_PROBE_ID = 900_000

VALID_FRAME = encode_message(Register(7, 10, 64))


@pytest.fixture(scope="module")
def transport():
    transport = SocketTransport(TransportConfig(
        kind="socket", connect_timeout=10.0))
    transport.start()
    yield transport
    transport.close()


def assert_still_serving(transport, probe_id):
    """The liveness oracle: a fresh, valid handshake must still succeed."""
    sock = socket.create_connection(transport.address, timeout=10.0)
    try:
        sock.sendall(encode_message(Register(probe_id, 10, 8)))
        sock.settimeout(10.0)
        data = b""
        while len(data) < 8:
            chunk = sock.recv(8 - len(data))
            assert chunk, "server closed a healthy connection"
            data += chunk
        _, length = frame_header(data)
        while len(data) < 8 + length + 4:
            chunk = sock.recv(8 + length + 4 - len(data))
            assert chunk, "server truncated its own reply"
            data += chunk
        ack, _ = decode_message(data)
        assert isinstance(ack, RegisterAck) and ack.client_id == probe_id
    finally:
        sock.close()


def send_hostile(transport, payload):
    sock = socket.create_connection(transport.address, timeout=10.0)
    try:
        sock.sendall(payload)
        # give the server a moment to reply (ErrorNotice) or hang up; we
        # don't parse the reply — hostile senders rarely do.  A short drain
        # window is enough: the liveness probe that follows is the oracle.
        sock.settimeout(0.25)
        try:
            while sock.recv(4096):
                pass
        except (socket.timeout, ConnectionError, OSError):
            pass
    finally:
        sock.close()


class TestHostileBytes:
    @settings(STANDARD, max_examples=scaled_max_examples(20),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(min_value=0, max_value=len(VALID_FRAME) - 1),
           probe=st.integers(min_value=0, max_value=1 << 16))
    def test_mid_frame_truncation_never_wedges_the_server(
            self, transport, cut, probe):
        # a peer that dies mid-frame: header, length prefix, or payload cut
        send_hostile(transport, VALID_FRAME[:cut])
        assert_still_serving(transport, _PROBE_ID + probe)

    @settings(STANDARD, max_examples=scaled_max_examples(20),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(length=st.integers(min_value=DEFAULT_MAX_FRAME_BYTES + 1,
                              max_value=1 << 40),
           probe=st.integers(min_value=0, max_value=1 << 16))
    def test_oversized_length_prefix_is_rejected_before_allocation(
            self, transport, length, probe):
        hostile = bytearray(VALID_FRAME[:8])
        hostile[4:8] = (length & 0xFFFFFFFF).to_bytes(4, "big")
        before = dict(transport.decode_failures)
        send_hostile(transport, bytes(hostile))
        assert_still_serving(transport, _PROBE_ID + probe)
        if (length & 0xFFFFFFFF) > DEFAULT_MAX_FRAME_BYTES:
            # an in-range-but-over-cap announcement is a counted decode
            # failure on the unidentified-peer key, not a silent drop
            assert transport.decode_failures.get(-1, 0) > before.get(-1, 0)

    @settings(STANDARD, max_examples=scaled_max_examples(30),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bit=st.integers(min_value=0, max_value=len(VALID_FRAME) * 8 - 1),
           probe=st.integers(min_value=0, max_value=1 << 16))
    def test_single_bit_flips_never_crash_or_hang(self, transport, bit, probe):
        damaged = bytearray(VALID_FRAME)
        damaged[bit // 8] ^= 1 << (bit % 8)
        send_hostile(transport, bytes(damaged))
        assert_still_serving(transport, _PROBE_ID + probe)

    @settings(STANDARD, max_examples=scaled_max_examples(20),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(noise=st.binary(min_size=1, max_size=256),
           probe=st.integers(min_value=0, max_value=1 << 16))
    def test_arbitrary_noise_never_crashes_the_loop(self, transport, noise,
                                                    probe):
        send_hostile(transport, noise)
        assert_still_serving(transport, _PROBE_ID + probe)


class TestDecodeFailureTelemetry:
    def test_corrupt_frame_from_a_registered_client_is_attributed(self):
        transport = SocketTransport(TransportConfig(
            kind="socket", connect_timeout=10.0))
        transport.start()
        try:
            sock = socket.create_connection(transport.address, timeout=10.0)
            sock.sendall(encode_message(Register(5, 10, 8)))
            # flip a payload bit of the *next* frame: the CRC catches it
            damaged = bytearray(encode_message(Register(5, 10, 8)))
            damaged[-6] ^= 0x10
            sock.sendall(bytes(damaged))
            sock.settimeout(5.0)
            try:
                while sock.recv(4096):
                    pass
            except (socket.timeout, ConnectionError, OSError):
                pass
            sock.close()
            # attributed to client 5 (it registered first), and the
            # disconnect cause names the corruption
            assert transport.decode_failures.get(5) == 1
            assert transport.disconnects.get(5) == "corrupt_frame"
        finally:
            transport.close()
