import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorsphere import wire
from sectorsphere.errors import FrameError
from sectorsphere.wire import (
    Message,
    decode_message,
    encode_message,
    pack_payload,
    unpack_payload,
)


def test_empty_message_is_13_zero_bytes():
    data = encode_message(Message(kind=0, request_id=0, payload=b""))
    assert data == b"\x00" * 13


def test_frame_layout_is_fixed():
    data = encode_message(Message(kind=2, request_id=1, payload=b"abc"))
    assert len(data) == 16
    assert data[0] == 2                                # kind
    assert data[1:9] == (1).to_bytes(8, "little")      # request id
    assert data[9:13] == (3).to_bytes(4, "little")     # payload length
    assert data.endswith(b"abc")


@settings(max_examples=1000, deadline=None)
@given(kind=st.integers(0, 255),
       request_id=st.integers(0, 2**64 - 1),
       payload=st.binary(max_size=2048))
def test_round_trip_identity(kind, request_id, payload):
    msg = Message(kind=kind, request_id=request_id, payload=payload)
    assert decode_message(encode_message(msg)) == msg


def test_oversize_payload_rejected(monkeypatch):
    monkeypatch.setattr(wire, "DEFAULT_MAX_PAYLOAD", 16)
    with pytest.raises(FrameError):
        encode_message(Message(kind=0, request_id=0, payload=b"x" * 32))


def test_decode_rejects_short_and_mismatched_frames():
    with pytest.raises(FrameError):
        decode_message(b"\x00" * 5)
    good = encode_message(Message(kind=1, request_id=2, payload=b"hello"))
    with pytest.raises(FrameError):
        decode_message(good + b"extra")


def test_payload_header_and_body_round_trip():
    header = {"name": "a/b.dat", "rows": 7}
    body = bytes(range(100))
    back_header, back_body = unpack_payload(pack_payload(header, body))
    assert back_header == header
    assert back_body == body
    assert unpack_payload(pack_payload({})) == ({}, b"")


def test_an_unpacked_body_is_a_view_of_its_payload():
    payload = pack_payload({"rows": 1}, b"x" * 1000)
    header, body = unpack_payload(payload)
    assert header == {"rows": 1} and isinstance(body, memoryview)
    assert body.obj is payload and body == b"x" * 1000
