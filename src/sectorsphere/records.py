"""Record files and their companion indexes.

A stored file is an opaque byte blob plus an index listing the (offset,
size) of every record, kept in a sibling file with an ".idx" suffix.
Index entries are 16 bytes each: offset and size as little-endian u64.

A READ reply uses the same layout. Its header gives `rows`, and its body
is `rows` index entries (16 bytes each, as in ".idx") followed by the
bytes of those records, back to back in index order.

A run of records in memory is a RecordBatch: one buffer plus the (n, 2)
entries of its records in that buffer, so reading, reordering and
slicing records needs no Python object per record.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IntegrityError

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
            if isinstance(sizes, np.ndarray):
                sizes = sizes.astype(_U64, copy=False)
            else:
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

    def to_bytes(self) -> bytes:
        return self.array.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RecordIndex":
        """A read-only view of an index blob in the ".idx" layout."""
        if len(blob) % ENTRY_SIZE:
            raise IntegrityError("index blob length %d is not a multiple of %d"
                                 % (len(blob), ENTRY_SIZE))
        return cls(np.frombuffer(blob, dtype=_U64))


class RecordBatch:
    """Records held as one buffer: `data` (bytes) and `entries`, an (n, 2)
    u64 array of each record's (offset, size) in `data`, in record order.
    Iterating a batch yields its records as bytes. A batch bound for a
    shuffle carries `buckets`, one int64 bucket id per record."""

    def __init__(self, data: bytes = b"", entries=None, buckets=None):
        if isinstance(entries, RecordIndex):
            entries = entries.array
        self.data = data
        self.entries = RecordIndex(() if entries is None else entries).array
        self.buckets = None
        if buckets is not None:
            self.buckets = np.asarray(buckets, dtype=np.int64).reshape(-1)
            if len(self.buckets) != len(self.entries):
                raise ValueError("%d bucket ids for %d records"
                                 % (len(self.buckets), len(self.entries)))

    @classmethod
    def from_records(cls, records) -> "RecordBatch":
        """The records of an iterable of bytes, packed back to back."""
        records = records if isinstance(records, (list, tuple)) else list(records)
        return cls(b"".join(records), RecordIndex.from_sizes(map(len, records)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        data = self.data
        for offset, size in self.entries.tolist():
            yield data[offset:offset + size]

    @property
    def sizes(self) -> np.ndarray:
        return self.entries[:, 1]

    def with_buckets(self, buckets) -> "RecordBatch":
        """The same records, tagged with one bucket id each."""
        return RecordBatch(self.data, self.entries, buckets)

    def pack(self) -> tuple[bytes, RecordIndex]:
        """The records' bytes back to back, and their index in those bytes."""
        offsets, sizes = self.entries[:, 0], self.entries[:, 1]
        index = RecordIndex.from_sizes(sizes)
        if not len(sizes):
            return b"", index
        if (offsets == index.array[:, 0]).all() and int(offsets[-1] + sizes[-1]) == len(self.data):
            return self.data, index
        return self.take(np.arange(len(sizes))).data, index

    def take(self, order) -> "RecordBatch":
        """A packed batch of the records at positions `order`, in that order."""
        order = np.asarray(order, dtype=np.int64)
        sizes = self.entries[order, 1]
        buckets = None if self.buckets is None else self.buckets[order]
        size = int(self.entries[0, 1]) if len(self.entries) else 0
        if not len(order):
            data = b""
        elif size and self._fixed_stride(size):
            # equal records at a fixed stride: one gather of size-byte items
            rows = np.frombuffer(self.data, "V%d" % size, len(self.entries),
                                 int(self.entries[0, 0]))
            data = np.take(rows, order).tobytes()
        else:
            # one slice per run of records that lie back to back in `data`
            offsets = self.entries[order, 0].astype(np.int64)
            ends = offsets + sizes.astype(np.int64)
            breaks = np.flatnonzero(offsets[1:] != ends[:-1]) + 1
            starts = offsets[np.concatenate(([0], breaks))].tolist()
            stops = ends[np.concatenate((breaks - 1, [len(order) - 1]))].tolist()
            source = self.data
            data = b"".join(source[a:b] for a, b in zip(starts, stops))
        return RecordBatch(data, RecordIndex.from_sizes(sizes), buckets)

    def _fixed_stride(self, size: int) -> bool:
        offsets, sizes = self.entries[:, 0], self.entries[:, 1]
        return bool((sizes == size).all() and (np.diff(offsets) == size).all())

    def heads(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The first `width` bytes of every record as an (n, width) u8
        array, zero-padded past a record's end, and how many of them are
        the record's own: min(size, width)."""
        offsets = self.entries[:, 0].astype(np.int64)
        lengths = np.minimum(self.entries[:, 1], width).astype(np.int64)
        positions = offsets[:, None] + np.arange(width)
        data = np.frombuffer(self.data, np.uint8)
        if (lengths == width).all():
            return data[positions], lengths
        heads = np.zeros((len(offsets), width), np.uint8)
        inside = np.arange(width) < lengths[:, None]
        heads[inside] = data[positions[inside]]
        return heads, lengths


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
