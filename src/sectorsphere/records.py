"""Record files and their companion indexes.

A stored file is an opaque byte blob plus an index listing the (offset,
size) of every record, kept in a sibling file with an ".idx" suffix.
Index entries are 16 bytes each: offset and size as little-endian u64.

A READ reply uses the same layout. Its header gives `rows`, and its body
is `rows` index entries (16 bytes each, as in ".idx") followed by the
bytes of those records, back to back in index order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IntegrityError, RangeError

INDEX_SUFFIX = ".idx"
ENTRY_SIZE = 16  # offset and size, each a little-endian u64
_U64 = np.dtype("<u8")


class RecordIndex:
    """The (offset, size) entries of a file's records. `array` holds them as
    an (n, 2) little-endian u64 array: offsets in column 0, sizes in 1."""

    def __init__(self, entries):
        if not isinstance(entries, np.ndarray):
            entries = np.array(list(entries), dtype=_U64)
        self.array = entries.astype(_U64, copy=False).reshape(-1, 2)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        return isinstance(other, RecordIndex) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return "RecordIndex(%d records)" % len(self)

    @classmethod
    def uniform(cls, count: int, record_size: int, start: int = 0) -> "RecordIndex":
        offsets = np.arange(count, dtype=_U64) * record_size + start
        return cls(np.column_stack((offsets, np.full(count, record_size, dtype=_U64))))

    @classmethod
    def from_sizes(cls, sizes, start: int = 0) -> "RecordIndex":
        """Records laid back to back from byte `start` on."""
        try:
            sizes = np.fromiter(sizes, dtype=_U64)
        except OverflowError as exc:
            raise IntegrityError("record size outside the u64 range: %s" % exc) from exc
        return cls(np.column_stack((np.cumsum(sizes) - sizes + start, sizes)))

    def validate(self, data_length: int) -> None:
        """Entries must be in-bounds, strictly increasing, non-overlapping."""
        offsets, sizes = self.array[:, 0], self.array[:, 1]
        ends = offsets + sizes
        bad = (ends < offsets) | (ends > data_length)  # wrapped past 2**64, or overruns
        bad[1:] |= offsets[1:] < ends[:-1]             # overlaps the record before
        if bad.any():
            i = int(bad.argmax())
            raise IntegrityError("index entry %d (offset %d, size %d) overlaps the previous "
                                 "record, wraps past 2**64 or overruns file length %d"
                                 % (i, offsets[i], sizes[i], data_length))

    def slice(self, start: int, rows: int) -> tuple[tuple[int, int], ...]:
        if start < 0 or rows < 0 or start + rows > len(self):
            raise RangeError(
                "record range [%d, %d) outside 0..%d" % (start, start + rows, len(self)))
        return tuple(map(tuple, self.array[start:start + rows].tolist()))

    def to_bytes(self) -> bytes:
        return self.array.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RecordIndex":
        """A read-only view of an index blob in the ".idx" layout."""
        if len(blob) % ENTRY_SIZE:
            raise IntegrityError("index blob length %d is not a multiple of %d"
                                 % (len(blob), ENTRY_SIZE))
        return cls(np.frombuffer(blob, dtype=_U64))


def index_path(data_path) -> Path:
    path = Path(data_path)
    return path.with_name(path.name + INDEX_SUFFIX)


def write_record_file(path, data: bytes, index: RecordIndex | None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    if index is not None:
        index.validate(len(data))
        index_path(path).write_bytes(index.to_bytes())


def read_record_file(path) -> tuple[bytes, RecordIndex | None]:
    path = Path(path)
    data = path.read_bytes()
    idx = index_path(path)
    index = RecordIndex.from_bytes(idx.read_bytes()) if idx.exists() else None
    if index is not None:
        index.validate(len(data))
    return data, index


def slice_records(data: bytes, entries) -> list[bytes]:
    return [data[offset:offset + size] for offset, size in entries]
