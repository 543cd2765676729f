"""Golden frames: the exact bytes of one fixed instance of every message.

The wire format is a contract between peers that may run different builds,
so a refactor of the message codecs must leave every frame byte-identical.
Each case below pins the length and SHA-256 of ``encode_message`` on a
fixed instance — one or more per message type, covering optional fields
present and absent, a mixed float32/float64 state, an unsorted failures
map and a packed ciphertext from a seeded key.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.crypto import generate_keypair
from repro.crypto.packing import PackedEncryptedVector
from repro.federated.client import LocalTrainingConfig
from repro.transport.messages import (
    MESSAGE_TYPES,
    ErrorNotice,
    Heartbeat,
    HeartbeatAck,
    ModelDelta,
    PackedCiphertextUpload,
    ProbabilityBroadcast,
    Register,
    RegisterAck,
    RoundResult,
    SelectionNotice,
    Shutdown,
    decode_message,
    encode_message,
)
from repro.transport.wire import WIRE_VERSION

MIXED_STATE = {
    "dense.weight": np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0,
    "dense.bias": np.array([-0.5, 0.25], dtype=np.float32),
}


def _seeded_upload():
    public, _ = generate_keypair(key_size=256, rng=random.Random(27))
    vector = PackedEncryptedVector.encrypt(public, [0.5, -0.25, 0.125],
                                           rng=random.Random(11))
    return PackedCiphertextUpload(2, "registry", vector)


GOLDEN_MESSAGES = {
    "register": Register(3, 10, 120, token="s7"),
    "register_ack": RegisterAck(3, 1, 4, token="s2", resumed=True),
    "packed_upload": _seeded_upload(),
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

#: case → (frame length, SHA-256 of the frame), captured from the
#: hand-written per-message codecs that preceded the table-driven one
GOLDEN_FRAMES = {
    "error": (26,
        "2013e2348796081ae1ecaea704628211ce1049d50b2c6649528b9122375338b2"),
    "heartbeat": (16,
        "584b24edf9f8386fe35ced0d9fc60fccbcf44fb6e63acdefc37b4a9872415cbf"),
    "heartbeat_ack": (16,
        "de6759b758edbd39fbe65a56c12e971441585ac4f4440bc2fd17211834de8205"),
    "model_delta": (160,
        "5164cfdf894e2d14f7f9587d343fcc9a4f45b6421ea8a7bd07807b3667875445"),
    "packed_upload": (168,
        "c03a216da872915928b3e07573fd131bb7ac5e4100e351670f3fe97d79f33966"),
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
    assert WIRE_VERSION == 2


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
