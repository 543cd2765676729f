"""Properties of the table-driven message codec, checked over the tables.

Every message class declares its wire layout once, as a ``WIRE`` table of
``(field name, codec)``; one generic encoder and decoder walk it.  The
properties below are therefore parametrised over :data:`MESSAGE_TYPES` with
hypothesis strategies derived from each table, so a new message is covered
the moment it is declared:

* ``decode(encode(m))`` carries ``m``'s field values and
  ``encode(decode(frame)) == frame``;
* every strict prefix of a payload, re-framed with a valid CRC, is a
  :class:`CorruptFrameError` — and so are bytes after the last field;
* a value the wire cannot carry fails at encode with a ``ValueError`` that
  names ``Class.field``.

It also pins the layout facts the chaos proxy relies on when it sniffs
``(round, client)`` coordinates out of relayed frames without decoding them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (DETERMINISM, model_states, recipes, same_message,
                        scaled_max_examples)

from repro.federated.client import LocalTrainingConfig
from repro.transport import chaos
from repro.transport.messages import (
    BOOL,
    F64_TUPLE,
    FAILURES,
    MESSAGE_TYPES,
    OPT_F64,
    RECIPE,
    STATE,
    STR,
    U32,
    Heartbeat,
    ModelDelta,
    Register,
    SelectionNotice,
    decode_message,
    encode_message,
)
from repro.transport.wire import CorruptFrameError, encode_frame

u32s = st.integers(min_value=0, max_value=(1 << 32) - 1)
finite = st.floats(allow_nan=False)


#: one strategy per codec a WIRE table may name
CODEC_STRATEGIES = {
    U32: u32s,
    STR: st.text(max_size=16),
    BOOL: st.booleans(),
    OPT_F64: st.none() | finite,
    F64_TUPLE: st.lists(finite, max_size=6).map(tuple),
    FAILURES: st.dictionaries(u32s, st.text(max_size=10), max_size=4),
    RECIPE: recipes,
    STATE: model_states(),
}

MESSAGE_CLASSES = [MESSAGE_TYPES[code] for code in sorted(MESSAGE_TYPES)]


def messages_of(cls):
    return st.builds(cls, **{name: CODEC_STRATEGIES[codec]
                             for name, codec in cls.WIRE})


def payload_of(frame):
    return frame[8:-4]


PROPERTY_SETTINGS = settings(DETERMINISM, max_examples=scaled_max_examples(25))


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
class TestTableProperties:
    def test_table_names_every_dataclass_field_once(self, cls):
        names = [name for name, _ in cls.WIRE]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(cls))
        assert all(codec in CODEC_STRATEGIES for _, codec in cls.WIRE)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_decode_inverts_encode(self, cls, data):
        message = data.draw(messages_of(cls))
        frame = encode_message(message)
        back, used = decode_message(frame)
        assert used == len(frame)
        assert type(back) is cls and same_message(back, message)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_encode_inverts_decode_byte_for_byte(self, cls, data):
        frame = encode_message(data.draw(messages_of(cls)))
        assert encode_message(decode_message(frame)[0]) == frame

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_every_strict_prefix_is_corrupt(self, cls, data):
        payload = payload_of(encode_message(data.draw(messages_of(cls))))
        for cut in range(len(payload)):
            with pytest.raises(CorruptFrameError):
                decode_message(encode_frame(cls.TYPE, payload[:cut]))

    @PROPERTY_SETTINGS
    @given(data=st.data(), extra=st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_are_corrupt(self, cls, data, extra):
        payload = payload_of(encode_message(data.draw(messages_of(cls))))
        with pytest.raises(CorruptFrameError, match="trailing bytes"):
            decode_message(encode_frame(cls.TYPE, payload + extra))


class TestStrictCodec:
    def test_trailing_garbage_after_register_is_corrupt(self):
        payload = Register(1, 10, 64).to_payload() + b"garbage"
        with pytest.raises(CorruptFrameError):
            Register.from_payload(payload)
        with pytest.raises(CorruptFrameError):
            decode_message(encode_frame(Register.TYPE, payload))

    @pytest.mark.parametrize("message, field", [
        (Register(-1, 10, 64), r"Register\.client_id"),
        (Register(1, 10, 1 << 32), r"Register\.num_samples"),
        (Heartbeat(1 << 32), r"Heartbeat\.seq"),
        (ModelDelta(1 << 40, 0, {}), r"ModelDelta\.round_index"),
        (SelectionNotice(0, 1, LocalTrainingConfig(batch_size=1 << 33), {}),
         r"SelectionNotice\.config"),
    ])
    def test_out_of_range_integer_names_the_field(self, message, field):
        with pytest.raises(ValueError, match=field):
            encode_message(message)


class TestChaosSniffing:
    """The proxy reads one u32 at payload offset 0; the tables must agree."""

    @pytest.mark.parametrize("code", sorted(chaos._ROUND_TYPES))
    def test_round_messages_lead_with_the_round_index(self, code):
        assert MESSAGE_TYPES[code].WIRE[0] == ("round_index", U32)

    def test_register_leads_with_the_client_id(self):
        assert Register.WIRE[0] == ("client_id", U32)

    def test_handshake_and_round_codes_are_disjoint_message_types(self):
        assert chaos._HANDSHAKE_TYPES <= set(MESSAGE_TYPES)
        assert not chaos._ROUND_TYPES & chaos._HANDSHAKE_TYPES

    def test_sniffing_real_frames_learns_client_and_round(self):
        relay = chaos._Relay(chaos.ChaosProxy(("127.0.0.1", 9)), 0)
        relay.sniff(0, Register.TYPE,
                    payload_of(encode_message(Register(12, 10, 64))))
        delta = ModelDelta(7, 12, {"w": np.zeros(2)})
        relay.sniff(0, ModelDelta.TYPE, payload_of(encode_message(delta)))
        assert (relay.client_id, relay.round_index) == (12, 7)
