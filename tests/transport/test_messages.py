"""Round-trip and rejection tests of the typed protocol messages.

Every message of the round protocol must survive ``encode_message`` →
``decode_message`` exactly, and a frame carrying an unknown type code or an
impossible payload must fail with a structured error — never parse into the
wrong message.
"""

import numpy as np
import pytest

from strategies import same_message

from repro.federated.client import LocalTrainingConfig
from repro.transport.messages import (
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
from repro.transport.wire import CorruptFrameError, encode_frame

STATE = {
    "dense.weight": np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0,
    "dense.bias": np.array([-0.5, 0.25], dtype=np.float32),
}


def roundtrip(message):
    frame = encode_message(message)
    back, consumed = decode_message(frame + b"tail bytes of the next frame")
    assert consumed == len(frame)
    return back


class TestRoundTrips:
    def test_register(self):
        assert same_message(roundtrip(Register(3, 10, 120)), Register(3, 10, 120))

    def test_register_with_session_token(self):
        msg = Register(3, 10, 120, token="s7")
        assert same_message(roundtrip(msg), msg) and roundtrip(msg).token == "s7"

    def test_register_ack(self):
        assert same_message(roundtrip(RegisterAck(3, 1, 4)), RegisterAck(3, 1, 4))

    def test_register_ack_carries_token_and_resumed(self):
        back = roundtrip(RegisterAck(3, 1, 4, token="s2", resumed=True))
        assert back.token == "s2" and back.resumed is True

    def test_heartbeat_pair(self):
        assert roundtrip(Heartbeat(41)).seq == 41
        assert roundtrip(HeartbeatAck(41)).seq == 41

    def test_probability_broadcast(self):
        msg = ProbabilityBroadcast(2, (0.125, 0.375, 0.5))
        assert same_message(roundtrip(msg), msg)

    def test_selection_notice_with_state_and_deadline(self):
        msg = SelectionNotice(
            round_index=4, client_id=9,
            config=LocalTrainingConfig(batch_size=4, local_epochs=2,
                                       learning_rate=5e-3),
            state=STATE, deadline=12.5)
        back = roundtrip(msg)
        assert same_message(back, msg)
        assert back.state["dense.bias"].dtype == np.float32

    def test_selection_notice_without_deadline(self):
        msg = SelectionNotice(0, 1, LocalTrainingConfig(), {})
        assert roundtrip(msg).deadline is None

    def test_model_delta(self):
        msg = ModelDelta(1, 7, STATE)
        assert same_message(roundtrip(msg), msg)

    def test_model_delta_token_survives(self):
        msg = ModelDelta(1, 7, STATE, token="s9")
        assert roundtrip(msg).token == "s9"

    def test_round_result_partial(self):
        msg = RoundResult(3, False, accuracy=0.625,
                          failures={4: "straggler", 1: "offline"})
        assert same_message(roundtrip(msg), msg)

    def test_round_result_skipped_without_accuracy(self):
        back = roundtrip(RoundResult(5, True))
        assert back.skipped and back.accuracy is None and back.failures == {}

    def test_shutdown_and_error(self):
        assert roundtrip(Shutdown("drained")).reason == "drained"
        assert roundtrip(ErrorNotice("bad upload")).detail == "bad upload"


class TestRejection:
    def test_type_codes_are_unique_and_registered(self):
        assert len(MESSAGE_TYPES) == 10
        # code 3, the packed ciphertext upload of wire version 2, is retired
        assert sorted(MESSAGE_TYPES) == [1, 2, *range(4, 12)]

    @pytest.mark.parametrize("code", [3, 250])
    def test_unknown_type_code_is_corrupt(self, code):
        with pytest.raises(CorruptFrameError, match="unknown message type"):
            decode_message(encode_frame(code, b""))

    def test_invalid_training_recipe_is_corrupt(self):
        frame = bytearray(encode_message(
            SelectionNotice(0, 1, LocalTrainingConfig(batch_size=1), {})))
        # a zero batch size is representable on the wire but invalid as a
        # config; decoding must reject it as corrupt, not construct it.
        # batch_size sits after the 8-byte header, round_index, client_id
        # and the one-byte deadline-absent flag
        offset = 8 + 4 + 4 + 1
        frame[offset:offset + 4] = (0).to_bytes(4, "big")
        # refresh the CRC so only the semantic damage remains
        import zlib

        body = bytes(frame[:-4])
        crc = (zlib.crc32(body[:8]) ^ zlib.crc32(body[8:])) & 0xFFFFFFFF
        frame[-4:] = crc.to_bytes(4, "big")
        with pytest.raises(CorruptFrameError, match="training recipe"):
            decode_message(bytes(frame))

    def test_truncated_message_payload_is_corrupt(self):
        payload = Register(1, 10, 64).to_payload()
        with pytest.raises(CorruptFrameError):
            Register.from_payload(payload[:5])
