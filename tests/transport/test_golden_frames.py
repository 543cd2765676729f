"""Golden frames: the exact bytes of one fixed instance of every message.

The wire format is a contract between peers that may run different builds,
so a refactor of the message codecs must leave every frame byte-identical.
Each case below pins the length and SHA-256 of ``encode_message`` on a
fixed instance — one or more per message type, covering optional fields
present and absent, a mixed float32/float64 state and an unsorted failures
map.  Wire version 3 retired type code 3 (the packed ciphertext upload) and
moved no payload byte: re-stamping each surviving message with version 2
reproduces its version-2 pin exactly.
"""

import hashlib

import numpy as np
import pytest

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
from repro.transport.wire import WIRE_VERSION, VersionMismatchError, encode_frame

MIXED_STATE = {
    "dense.weight": np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0,
    "dense.bias": np.array([-0.5, 0.25], dtype=np.float32),
}


GOLDEN_MESSAGES = {
    "register": Register(3, 10, 120, token="s7"),
    "register_ack": RegisterAck(3, 1, 4, token="s2", resumed=True),
    "probabilities": ProbabilityBroadcast(2, (0.125, 0.375, 0.5)),
    "selection_full": SelectionNotice(
        4, 9, LocalTrainingConfig(batch_size=4, local_epochs=2,
                                  learning_rate=5e-3,
                                  max_batches_per_epoch=3),
        MIXED_STATE, deadline=12.5),
    "selection_bare": SelectionNotice(
        4, 9, LocalTrainingConfig(batch_size=4, local_epochs=2,
                                  learning_rate=5e-3),
        MIXED_STATE),
    "model_delta": ModelDelta(1, 7, MIXED_STATE, token="s9"),
    "round_result": RoundResult(3, False, accuracy=0.625,
                                failures={4: "straggler", 1: "offline"}),
    "shutdown": Shutdown("drained"),
    "error": ErrorNotice("bad upload"),
    "heartbeat": Heartbeat(41),
    "heartbeat_ack": HeartbeatAck(42),
}

#: case → (frame length, SHA-256 of the frame) at wire version 3
GOLDEN_FRAMES = {
    "error": (26,
        "b39e71c946890910dd491b16d4bafee2cb1cef1f11fa754ff64e806871d2eef3"),
    "heartbeat": (16,
        "539b4879d6b014e9e69ff20369c0cb55768707b64966d4066fea4540fc68fc41"),
    "heartbeat_ack": (16,
        "d1e70a0afde5b0df2bfa43b53a4e1ed0070431c1dfb9be4a2436a4279bbee3d6"),
    "model_delta": (160,
        "cf4de6bf5733900c4b6fc9f75d5ece16849356be4089724a7e339ae11da1a324"),
    "probabilities": (44,
        "f43873f4edda3bbcb8f1678eb1626e14e419943846f56033570ab07ef82018e9"),
    "register": (30,
        "08e37f74671bccd963b6e0abee7c10b09e28e5f591703ac62ff65f8d4bc81e6e"),
    "register_ack": (31,
        "40c1529f916ce31d669a816dea60671ea2fc9cf94fb4473f36f243b7b5a0fb79"),
    "round_result": (62,
        "a913f15a1eb97df7f850a4cdc45802cbae3a6e34ee841c98ed9f5e822ce46f51"),
    "selection_bare": (180,
        "7d53765632bf38418fe3e488d6538e4775321aa573aeedbb5609b1d9e98f28b6"),
    "selection_full": (192,
        "b539b46dabf2ad7e428c20437525f87867169f42927aa909ce1fb4bd95570271"),
    "shutdown": (23,
        "75fa6e0104d7af588e6a12034d047abb584d5315924fd84863a03e0dbfda8cc6"),
}

#: the same cases at wire version 2, captured from the hand-written
#: per-message codecs that preceded the table-driven one
GOLDEN_FRAMES_V2 = {
    "error": (26,
        "2013e2348796081ae1ecaea704628211ce1049d50b2c6649528b9122375338b2"),
    "heartbeat": (16,
        "584b24edf9f8386fe35ced0d9fc60fccbcf44fb6e63acdefc37b4a9872415cbf"),
    "heartbeat_ack": (16,
        "de6759b758edbd39fbe65a56c12e971441585ac4f4440bc2fd17211834de8205"),
    "model_delta": (160,
        "5164cfdf894e2d14f7f9587d343fcc9a4f45b6421ea8a7bd07807b3667875445"),
    "probabilities": (44,
        "b4616565df883ef27beedd4e4d12ad41e9fe29c9a490939ddf6b3e3634e0b482"),
    "register": (30,
        "082e5c33ae2982637dbd1556805842c079e89ba60258cb2d5886153f3ee683d3"),
    "register_ack": (31,
        "50405c16cbb8c891272a838bc0c9a4d3995f3bd7d8bcd5968b50bb3a5f91225e"),
    "round_result": (62,
        "f62fef21998a903680443bfd4e945a4002ce570afcc7132b8f2163ab71fc9e4a"),
    "selection_bare": (180,
        "9d6f82d853f1aceef8a49392e85f9a0e88251ade1b31b84ac9e524792524c859"),
    "selection_full": (192,
        "9dba9121d1da1d4f68b0cb62ad86650a4e58ada5302e36a2cdfee13b122c18d4"),
    "shutdown": (23,
        "599fbb3a5765a7156e4e84c4be20550178ac62d083d319809ddb760512f60ecb"),
}


def test_every_message_type_is_pinned():
    pinned = {type(message) for message in GOLDEN_MESSAGES.values()}
    assert pinned == set(MESSAGE_TYPES.values())
    assert WIRE_VERSION == 3
    assert 3 not in MESSAGE_TYPES  # the retired packed ciphertext upload


@pytest.mark.parametrize("case", sorted(GOLDEN_MESSAGES))
def test_frame_bytes_are_pinned(case):
    frame = encode_message(GOLDEN_MESSAGES[case])
    assert (len(frame), hashlib.sha256(frame).hexdigest()) == GOLDEN_FRAMES[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_MESSAGES))
def test_golden_frame_decodes_and_reencodes(case):
    frame = encode_message(GOLDEN_MESSAGES[case])
    message, used = decode_message(frame)
    assert used == len(frame)
    assert encode_message(message) == frame


@pytest.mark.parametrize("case", sorted(GOLDEN_MESSAGES))
def test_no_payload_byte_moved_since_version_2(case):
    message = GOLDEN_MESSAGES[case]
    frame = encode_frame(message.TYPE, message.to_payload(), version=2)
    assert (len(frame), hashlib.sha256(frame).hexdigest()) == GOLDEN_FRAMES_V2[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_MESSAGES))
def test_version_2_frame_is_refused(case):
    # the payload bytes are the same at both versions, so only the header
    # keeps a version-2 peer's frame from being read as a version-3 message
    message = GOLDEN_MESSAGES[case]
    frame = encode_frame(message.TYPE, message.to_payload(), version=2)
    with pytest.raises(VersionMismatchError):
        decode_message(frame)
