"""Chunked file transfer over control channels.

Whole files move as a store-begin / data / index / end sequence and are
fetched back in bounded ranges, so arbitrarily large files fit under the
frame payload cap.
"""

from __future__ import annotations

import uuid

from .errors import IntegrityError
from .records import ENTRY_SIZE, RecordIndex
from .wire import MessageKind

TRANSFER_CHUNK = 8 * 1024 * 1024


def push_file(channel, name: str, data: bytes, index_bytes: bytes | None,
              internal: bool = False, origin: str | None = None,
              chunk: int = TRANSFER_CHUNK) -> dict:
    """Store a file (and optional index) on the channel's peer."""
    header = {
        "name": name,
        "data_size": len(data),
        "index_size": len(index_bytes) if index_bytes is not None else -1,
        "internal": internal,
    }
    if origin:
        header["origin"] = origin
    begin, _ = channel.call(MessageKind.STORE_BEGIN, header)
    token = begin["token"]
    for offset in range(0, len(data), chunk):
        channel.call(MessageKind.STORE_DATA,
                     {"token": token, "offset": offset},
                     data[offset:offset + chunk])
    if index_bytes:
        for offset in range(0, len(index_bytes), chunk):
            channel.call(MessageKind.STORE_INDEX,
                         {"token": token, "offset": offset},
                         index_bytes[offset:offset + chunk])
    done, _ = channel.call(MessageKind.STORE_END, {"token": token})
    return done


def fetch_file(channel, name: str, chunk: int = TRANSFER_CHUNK) -> tuple[bytes, bytes | None]:
    """Fetch a file and its index from the channel's peer."""
    stat, _ = channel.call(MessageKind.STAT, {"name": name})
    data = _fetch_range(channel, MessageKind.FETCH, name, stat["size"], chunk)
    index_bytes = None
    if stat["indexed"]:
        index_bytes = _fetch_range(channel, MessageKind.FETCH_INDEX, name,
                                   stat["index_bytes"], chunk)
    return data, index_bytes


def _fetch_range(channel, kind, name: str, total: int, chunk: int) -> bytes:
    parts = []
    offset = 0
    while offset < total:
        length = min(chunk, total - offset)
        header, body = channel.call(kind, {"name": name, "offset": offset, "length": length})
        if len(body) != length:
            raise IntegrityError("short fetch of %s: wanted %d bytes, got %d"
                                 % (name, length, len(body)))
        parts.append(body)
        offset += length
    return b"".join(parts)


def read_records_over(channel, name: str, offset: int, rows: int) -> tuple[list[bytes], list]:
    """Read a run of records from the peer, following server-side byte caps.
    A READ reply body is `rows` .idx entries, then those records' bytes."""
    records: list[bytes] = []
    entries: list = []
    while rows > 0:
        header, body = channel.call(MessageKind.READ,
                                    {"name": name, "offset": offset, "rows": rows})
        got = header["rows"]
        head = got * ENTRY_SIZE
        if not 0 < got <= rows or head > len(body):
            raise IntegrityError("READ of %s replied %d rows in %d bytes, asked for %d"
                                 % (name, got, len(body), rows))
        pairs = RecordIndex.from_bytes(body[:head]).array.tolist()
        position = head
        for _, size in pairs:
            records.append(body[position:position + size])
            position += size
        if position != len(body):
            raise IntegrityError("READ of %s: records take %d bytes, the body has %d"
                                 % (name, position - head, len(body) - head))
        entries.extend(map(tuple, pairs))
        offset += got
        rows -= got
    return records, entries


def new_token() -> str:
    return uuid.uuid4().hex
