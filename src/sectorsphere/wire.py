"""Control-message wire format.

Every frame is: 1-byte kind, 8-byte request id, 4-byte payload length,
payload. All integers little-endian. Structured payloads carry a
length-prefixed JSON header followed by an opaque binary body; an
unpacked body is a memoryview of its payload, so a large body is never
copied to be read.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass

from .errors import FrameError

HEADER = struct.Struct("<BQI")
HEADER_LEN = HEADER.size  # 13
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024


class MessageKind(enum.IntEnum):
    PING = 0
    OK = 1
    ERROR = 2
    LOOKUP = 3
    MEMBERS = 5
    REGISTER = 6
    STORE_DATA = 9
    READ = 12
    FETCH = 13
    REPLICATE = 15
    SPE_RUN = 16
    SHUFFLE_APPEND = 19
    FINALIZE_JOB = 20


@dataclass
class Message:
    kind: int
    request_id: int
    payload: bytes = b""


def encode_message(msg: Message) -> bytes:
    if len(msg.payload) > DEFAULT_MAX_PAYLOAD:
        raise FrameError("payload of %d bytes exceeds maximum %d"
                         % (len(msg.payload), DEFAULT_MAX_PAYLOAD))
    return HEADER.pack(int(msg.kind), msg.request_id, len(msg.payload)) + msg.payload


def decode_message(data: bytes) -> Message:
    if len(data) < HEADER_LEN:
        raise FrameError("short frame: %d bytes" % len(data))
    kind, request_id, length = HEADER.unpack_from(data)
    if len(data) != HEADER_LEN + length:
        raise FrameError(
            "frame length mismatch: header says %d payload bytes, got %d"
            % (length, len(data) - HEADER_LEN)
        )
    return Message(kind=kind, request_id=request_id, payload=data[HEADER_LEN:])


_PLEN = struct.Struct("<I")


def pack_payload(header: dict, body: bytes = b"") -> bytes:
    blob = json.dumps(header, separators=(",", ":")).encode()
    return _PLEN.pack(len(blob)) + blob + body


def unpack_payload(payload: bytes) -> tuple[dict, memoryview]:
    if len(payload) < _PLEN.size:
        raise FrameError("payload too short for header")
    (hlen,) = _PLEN.unpack_from(payload)
    end = _PLEN.size + hlen
    if len(payload) < end:
        raise FrameError("payload header truncated")
    try:
        header = json.loads(payload[_PLEN.size:end])
    except ValueError as exc:
        raise FrameError("bad payload header: %s" % exc) from exc
    return header, memoryview(payload)[end:]
