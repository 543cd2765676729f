"""Property tests of the wire codec (framing, primitives, state).

The wire format is the trust boundary of the service layer, so its codec is
pinned by hypothesis round-trips rather than examples: arbitrary payloads
frame and unframe exactly; arbitrary model states (float32 and float64
alike, any slot layout) survive bit-for-bit; and every damaged frame —
truncated, bit-flipped, or
stamped with a foreign protocol version — fails with the matching
*structured* error instead of a misparse.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import DETERMINISM, model_states, scaled_max_examples

from repro.transport.wire import (
    CorruptFrameError,
    TruncatedFrameError,
    VersionMismatchError,
    WIRE_VERSION,
    WireError,
    WireReader,
    WireWriter,
    decode_frame,
    encode_frame,
    frame_header,
    state_from_wire,
    state_to_wire,
)

payloads = st.binary(max_size=512)
msg_types = st.integers(min_value=0, max_value=255)

class TestFraming:
    @given(msg_type=msg_types, payload=payloads)
    @settings(max_examples=scaled_max_examples(100))
    def test_frame_round_trip(self, msg_type, payload):
        frame = encode_frame(msg_type, payload)
        assert decode_frame(frame) == (msg_type, payload, len(frame))
        assert frame_header(frame) == (msg_type, len(payload))

    @given(msg_type=msg_types, payload=payloads, data=st.data())
    @settings(max_examples=scaled_max_examples(100))
    def test_any_truncation_is_a_truncated_frame(self, msg_type, payload,
                                                 data):
        frame = encode_frame(msg_type, payload)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:cut])

    @given(msg_type=msg_types, payload=payloads, data=st.data())
    @settings(max_examples=scaled_max_examples(200))
    def test_any_bit_flip_is_a_structured_error(self, msg_type, payload,
                                                data):
        frame = bytearray(encode_frame(msg_type, payload))
        position = data.draw(st.integers(0, len(frame) - 1))
        flip = data.draw(st.integers(1, 255))
        frame[position] ^= flip
        # damage never yields a silent misparse: it either raises one of the
        # structured errors, or (when only the type byte flipped, which the
        # CRC cannot distinguish from an honest different type) still hands
        # back the exact original payload
        try:
            decoded_type, decoded_payload, _ = decode_frame(bytes(frame))
        except (TruncatedFrameError, CorruptFrameError,
                VersionMismatchError):
            return
        assert decoded_payload == payload
        assert decoded_type != msg_type

    @given(msg_type=msg_types, payload=payloads,
           version=st.integers(0, 255).filter(lambda v: v != WIRE_VERSION))
    @settings(max_examples=scaled_max_examples(50))
    def test_cross_version_frames_are_rejected(self, msg_type, payload,
                                               version):
        frame = encode_frame(msg_type, payload, version=version)
        with pytest.raises(VersionMismatchError):
            decode_frame(frame)
        with pytest.raises(VersionMismatchError):
            frame_header(frame)

    def test_oversized_length_is_rejected_before_allocation(self):
        frame = encode_frame(1, b"x" * 64)
        with pytest.raises(CorruptFrameError):
            frame_header(frame, max_frame_bytes=16)

    def test_wire_error_is_a_value_error(self):
        assert issubclass(TruncatedFrameError, WireError)
        assert issubclass(CorruptFrameError, WireError)
        assert issubclass(VersionMismatchError, WireError)
        assert issubclass(WireError, ValueError)


class TestPrimitives:
    @given(values=st.lists(st.integers(0, 2**32 - 1), max_size=8))
    @settings(max_examples=scaled_max_examples(50))
    def test_u32_sequences_round_trip(self, values):
        writer = WireWriter()
        for value in values:
            writer.u32(value)
        reader = WireReader(writer.getvalue())
        assert [reader.u32() for _ in values] == values
        assert reader.exhausted()

    @given(text=st.text(max_size=64), number=st.integers(0, 2**32 - 1),
           flag=st.booleans(), opt=st.none() | st.floats(allow_nan=False))
    @settings(max_examples=scaled_max_examples(100))
    def test_mixed_fields_round_trip(self, text, number, flag, opt):
        payload = (WireWriter().str(text).u32(number).bool(flag)
                   .opt_f64(opt).getvalue())
        reader = WireReader(payload)
        assert reader.str() == text
        assert reader.u32() == number
        assert reader.bool() is flag
        assert reader.opt_f64() == opt
        assert reader.exhausted()

    @given(payload=st.binary(max_size=32))
    @settings(max_examples=scaled_max_examples(50))
    def test_overrun_is_corrupt_not_crash(self, payload):
        reader = WireReader(payload)
        with pytest.raises(CorruptFrameError):
            for _ in range(len(payload) + 1):
                reader.u32()

    def test_invalid_utf8_is_corrupt(self):
        with pytest.raises(CorruptFrameError):
            WireReader(WireWriter().bytes(b"\xff\xfe").getvalue()).str()


class TestStateCodec:
    @given(state=model_states())
    @settings(DETERMINISM, max_examples=scaled_max_examples(100))
    def test_states_round_trip_bit_for_bit(self, state):
        back = state_from_wire(state_to_wire(state))
        assert set(back) == set(state)
        for name, array in state.items():
            assert back[name].dtype == array.dtype
            assert back[name].shape == array.shape
            assert np.array_equal(back[name], array)

    def test_float_payload_bits_are_preserved(self):
        array = np.array([0.1, -0.2, np.pi], dtype=np.float64)
        back = state_from_wire(state_to_wire({"w": array}))["w"]
        assert back.tobytes() == array.tobytes()

    def test_unsupported_dtype_is_rejected_at_encode(self):
        with pytest.raises(ValueError):
            state_to_wire({"w": np.zeros(2, dtype=np.complex128)})

    def test_short_array_body_is_corrupt(self):
        payload = bytearray(state_to_wire({"w": np.ones(4)}))
        # shrink the trailing raw-bytes length prefix: shape needs 32 bytes
        offset = payload.rindex((32).to_bytes(4, "big"))
        payload[offset:offset + 4] = (24).to_bytes(4, "big")
        with pytest.raises(CorruptFrameError):
            state_from_wire(bytes(payload[:len(payload) - 8]))

