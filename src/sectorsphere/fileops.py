"""Chunked file transfer over control channels.

A file travels as one byte stream, its data followed by its index, both
ways. A store cuts it into TRANSFER_CHUNK pieces that each travel as a
STORE_DATA call. Every piece repeats the store's header and a token
chosen by the sender, so a file that fits one chunk is stored by a
single message; the reply to the piece that completes the stream is the
stored file's STAT header. The sender reads a file it stores from disk
one piece at a time (FileSource), and the node writes each piece to a
temp file as it arrives and renames the temp files into place when the
stream is complete, so neither side holds a whole store in memory. A
fetch reads the stream back in FETCH ranges, so arbitrarily large files
fit under the frame payload cap. Both the pieces and the ranges are
TRANSFER_CHUNK bytes, as the module has it when the transfer starts. A READ names runs of a file's records,
[[offset, rows], ...], and its reply holds them in run order, cut
before the record that takes the records and their ENTRY_SIZE index
entries past TRANSFER_CHUNK bytes, as the node module has it; the
reader asks for the rest in the next READ.

A fetch or read made against a STAT header (built by file_header alone)
that the caller got from a LOOKUP reply, or from the store or the job
that wrote the file, carries the header itself as `expect`; a holder
whose header differs raises StaleError instead of serving bytes of
another version. Callers that may use any of a file's holders try them
in order through first_holder.
"""

from __future__ import annotations

import os
import uuid

import numpy as np

from .errors import IntegrityError, NotFoundError, SectorError, TransportError
from .records import ENTRY_SIZE, RecordBatch, RecordIndex
from .wire import MessageKind

TRANSFER_CHUNK = 8 * 1024 * 1024


class FileSource:
    """A file's bytes as push_file takes them, read from disk on demand:
    len() is the size of the file when it was opened, and a slice is one
    seek and read of the open file, so no more of the file than a slice is
    in memory. The handle is held to the end of the with block, so a
    rename over the path meanwhile does not change what is read. Not an mmap: a file truncated meanwhile gives IntegrityError,
    where a mapping would kill the process with SIGBUS."""

    def __init__(self, path):
        self._file = open(path, "rb")
        self._size = os.fstat(self._file.fileno()).st_size

    def __enter__(self) -> "FileSource":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, span: slice) -> bytes:
        start, stop, _ = span.indices(self._size)
        if start >= stop:
            return b""
        self._file.seek(start)
        data = self._file.read(stop - start)
        if len(data) != stop - start:
            raise IntegrityError("%s shrank to %d bytes while it was read"
                                 % (self._file.name, start + len(data)))
        return data


def push_file(channel, name: str, data, index_bytes, internal: bool = False) -> dict:
    """Store a file (and optional index) on the channel's peer. Returns
    the peer's STAT header of the stored file. `data` and `index_bytes`
    (None: no index) are bytes or a FileSource; each piece slices out
    only its own part of them."""
    index = index_bytes or b""
    header = {
        "name": name,
        "data_size": len(data),
        "index_size": len(index_bytes) if index_bytes is not None else -1,
        "internal": internal,
        "token": uuid.uuid4().hex,
    }
    total = len(data) + len(index)
    done: dict = {}
    for offset in range(0, max(total, 1), TRANSFER_CHUNK):
        end = min(offset + TRANSFER_CHUNK, total)
        piece = data[offset:end] + index[max(0, offset - len(data)):max(0, end - len(data))]
        done, _ = channel.call(MessageKind.STORE_DATA, {**header, "offset": offset}, piece)
    return done


def file_header(records: int, size: int, indexed: bool) -> dict:
    """A stored file's STAT header; an unindexed file is one record. A
    header is never changed in place, so holders and caches share it."""
    return {"records": records, "size": size, "indexed": indexed}


def stream_size(stat: dict) -> int:
    """The bytes of the store stream of the file that `stat` describes."""
    return stat["size"] + (ENTRY_SIZE * stat["records"] if stat["indexed"] else 0)


def fetch_file(channel, name: str, stat: dict) -> tuple[bytes, bytes | None]:
    """Fetch a file and its index as its STAT header `stat` describes them:
    the store stream in TRANSFER_CHUNK ranges, cut at the data's size. The
    peer refuses with StaleError if its copy is not the one described."""
    size, total = stat["size"], stream_size(stat)
    data, index = [], []
    for offset in range(0, total, TRANSFER_CHUNK):
        length = min(TRANSFER_CHUNK, total - offset)
        _, body = channel.call(MessageKind.FETCH, {"name": name, "offset": offset,
                                                   "length": length, "expect": stat})
        if len(body) != length:
            raise IntegrityError("short fetch of %s: wanted %d bytes, got %d"
                                 % (name, length, len(body)))
        cut = max(0, size - offset)  # the data's bytes in this range
        data.append(body[:cut])
        index.append(body[cut:])
    return b"".join(data), b"".join(index) if stat["indexed"] else None


def read_records_over(channel, name: str, runs,
                      expect: dict | None = None) -> tuple[RecordBatch, RecordIndex]:
    """Read runs of records, [(offset, rows), ...], from the peer: all in
    one READ, unless the peer cuts its reply at TRANSFER_CHUNK bytes, when
    the rest are asked for in the next. Returns the runs' records in run
    order as one batch, and their index entries in the file. With
    `expect`, the file's STAT header, the peer serves only the version it
    describes."""
    runs = [[offset, rows] for offset, rows in runs if rows]
    parts: list = []
    heads: list[np.ndarray] = []
    while runs:
        header, body = channel.call(MessageKind.READ, {"name": name, "runs": runs,
                                                       "expect": expect})
        got = header["rows"]
        entries, records = split_rows(got, body, "READ of %s" % name)
        asked = sum(rows for _, rows in runs)
        if not 0 < got <= asked:
            raise IntegrityError("READ of %s replied %d rows, asked for %d"
                                 % (name, got, asked))
        heads.append(entries)
        parts.append(records)
        _, runs = cut_runs(runs, got)
    index = RecordIndex(np.concatenate(heads) if heads else ())
    return RecordBatch(b"".join(parts), RecordIndex.from_sizes(index.array[:, 1])), index


def cut_runs(runs, rows: int) -> tuple[list[list[int]], list[list[int]]]:
    """Runs [(offset, rows), ...] cut after their first `rows` rows: (the
    runs before the cut, the runs after it)."""
    head, rest = [], []
    for offset, count in runs:
        taken = max(0, min(rows, count))
        rows -= taken
        if taken:
            head.append([offset, taken])
        if taken < count:
            rest.append([offset + taken, count - taken])
    return head, rest


def split_rows(rows: int, body: bytes, what: str) -> tuple[np.ndarray, memoryview]:
    """A body laid out as `rows` .idx entries, then those records' bytes
    back to back, as the (rows, 2) entries and the records' bytes.
    IntegrityError unless `rows` is a non-negative int and the entries'
    sizes add up to the bytes that follow them."""
    if type(rows) is not int or rows < 0 or rows * ENTRY_SIZE > len(body):
        raise IntegrityError("%s sent %r rows in %d bytes" % (what, rows, len(body)))
    head = rows * ENTRY_SIZE
    entries = RecordIndex.from_bytes(body[:head]).array
    sizes, room = entries[:, 1], len(body) - head
    if (sizes > room).any() or int(sizes.sum()) != room:
        raise IntegrityError("%s: the records' sizes do not add up to the %d bytes "
                             "after the index" % (what, room))
    return entries, memoryview(body)[head:]


def first_holder(transport, holders, attempt) -> tuple:
    """(holder, attempt(channel)) at the first of `holders` that answers.
    A holder that cannot be reached (TransportError) or has no copy of the
    version asked for (NotFoundError, StaleError) is skipped; any other
    error propagates. When no holder answers, the last error is raised."""
    error: SectorError = NotFoundError("no holder to try")
    for holder in holders:
        try:
            return holder, attempt(transport.open_channel(holder))
        except (TransportError, NotFoundError) as exc:
            error = exc
    raise error
