"""Sorting and tree-split benchmarks.

teragen writes files of 100-byte records with 10-byte keys. terasort is a
two-phase job: a shuffle bucketing records by sampled key ranges across
nodes, then a local sort of each bucket; concatenating buckets in range
order yields a globally key-sorted stream. terasplit scans a sorted,
labeled stream once and picks the key threshold with maximal information
gain.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sphere
from .records import INDEX_SUFFIX, RecordBatch, RecordIndex, read_record_file

RECORD_SIZE = 100
KEY_SIZE = 10

_GEN_CHUNK_RECORDS = 65536


def teragen(n_records: int, seed: int, destination) -> Path:
    """Write n_records pseudo-random 100-byte records plus the companion
    index; deterministic for a given seed."""
    if n_records < 0:
        raise ValueError("record count must be >= 0")
    path = Path(destination)
    path.parent.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    index_file = path.with_name(path.name + INDEX_SUFFIX)
    with path.open("wb") as data, index_file.open("wb") as idx:
        written = 0
        while written < n_records:
            batch = min(_GEN_CHUNK_RECORDS, n_records - written)
            data.write(rng.randbytes(batch * RECORD_SIZE))
            idx.write(RecordIndex.uniform(batch, RECORD_SIZE, written * RECORD_SIZE).to_bytes())
            written += batch
    return path


def record_label(record: bytes) -> int:
    """Records label themselves: the parity of the first payload byte."""
    return record[KEY_SIZE] & 1


# ------------------------------------------------------------------ sorting

def key_column(records: RecordBatch, width: int = KEY_SIZE) -> np.ndarray:
    """Each record's key, its first `width` bytes, as one fixed-width numpy
    bytes value: the key zero-padded to `width` bytes, then its length as
    a big-endian u16. These values order as the keys do, so a key sorts
    after its own prefixes (b"ab" < b"ab\\0"), which plain zero padding
    would lose. key_bytes turns a value back into its key."""
    return _key_column(*records.heads(width))


def _key_column(heads: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    column = np.empty((len(heads), heads.shape[1] + 2), np.uint8)
    column[:, :-2] = heads
    column[:, -2:] = lengths.astype(">u2").view(np.uint8).reshape(-1, 2)
    return column.view("S%d" % column.shape[1]).reshape(-1)


def key_bytes(column: np.ndarray, i: int) -> bytes:
    """The key of value i of a key_column. A numpy bytes value drops its
    trailing NULs, so the value is read as raw bytes."""
    raw = column[i:i + 1].tobytes()
    return raw[:int.from_bytes(raw[-2:], "big")]


def _boundaries_from_params(params: bytes) -> tuple[bytes, ...]:
    return tuple(bytes.fromhex(h) for h in json.loads(params)["boundaries"])


def _boundary_column(params: bytes) -> np.ndarray:
    return key_column(RecordBatch.from_records(_boundaries_from_params(params)))


def _key_range_bucket(record: bytes, params: bytes) -> int:
    """The reference rule for a record's range partition, one record at a
    time; the key-range operator computes the same for a whole segment."""
    boundaries = sphere.decoded_params(params, _boundaries_from_params)
    return bisect.bisect_right(boundaries, record[:KEY_SIZE])


def _key_range_segment(records: RecordBatch, params: bytes) -> RecordBatch:
    """The segment, each record tagged with the range its key falls in."""
    boundaries = sphere.decoded_params(params, _boundary_column)
    return records.with_buckets(
        np.searchsorted(boundaries, key_column(records), side="right"))


def _sort_segment(records: RecordBatch, params: bytes) -> RecordBatch:
    """The segment stably sorted by key."""
    return records.take(np.argsort(key_column(records), kind="stable"))


# no job calls it; registered for ssbench/tracing.py until ROADMAP item 4
sphere.register_bucket("key-range", _key_range_bucket)
sphere.register_operator("key-range", _key_range_segment, scope="segment")
sphere.register_operator("sort-records", _sort_segment, scope="segment")


def sample_boundaries(session, stream: sphere.Stream, parts: int,
                      sample_target: int = 10000) -> list[bytes]:
    """Pick parts-1 range boundaries from key quantiles of a sample.

    The sample is read as up to three contiguous runs per file (head,
    middle, tail) totalling about sample_target records, each file's runs
    in one READ (see ClientSession.read_runs) against its header, which
    resolve_stream has cached. The files are read through the session's
    Transport.overlap: up to transport.LANES at once on its executor when a
    call to one of their nearest holders waits on a network, else one
    after another in the caller's thread.
    """
    if parts < 1:
        raise ValueError("need at least one partition")
    total = stream.total_records
    if total == 0 or parts == 1:
        return []
    per_file = max(1, sample_target // max(1, len(stream.files)))
    reads = []
    for f in stream.files:
        quota = min(per_file, f.records)
        run = max(1, quota // 3)
        runs, taken = [], 0
        for start in sorted({0, max(0, f.records // 2 - run // 2), max(0, f.records - run)}):
            if taken >= quota:
                break
            rows = min(run, f.records - start, quota - taken)
            runs.append((start, rows))
            taken += rows
        if runs:
            reads.append((f.name, runs))

    def sample(read) -> list[bytes]:
        return [record[:KEY_SIZE] for record in session.read_runs(*read)]

    holders = [f.locations[0] for f in stream.files if f.locations]
    keys = sorted(key for sampled in session.transport.overlap(holders, sample, reads)
                  for key in sampled)
    boundaries = []
    for i in range(1, parts):
        boundaries.append(keys[min(len(keys) - 1, i * len(keys) // parts)])
    return boundaries


def terasort(session, stream, destinations=None, job_id: str | None = None,
             sample_target: int = 10000,
             limits: sphere.SegmentLimits | None = None):
    """Sort a stream of fixed-size records by key across the cluster.

    Returns (sorted output stream, {"shuffle": report, "sort": report});
    concatenating the output files in order is globally sorted.
    """
    if not isinstance(stream, sphere.Stream):
        stream = session.resolve_stream(stream)
    destinations = list(destinations or session.members())
    boundaries = sample_boundaries(session, stream, len(destinations),
                                   sample_target=sample_target)
    params = json.dumps({"boundaries": [b.hex() for b in boundaries]}).encode()
    shuffle_spec = sphere.OutputSpec(mode=sphere.OutputMode.SHUFFLE,
                                     destinations=tuple(destinations))
    bucketed, shuffle_report = session.run_job(
        stream, "key-range", params=params, output=shuffle_spec,
        limits=limits or sphere.DEFAULT_LIMITS, job_id=job_id)
    if not bucketed.files:
        return bucketed, {"shuffle": shuffle_report, "sort": None}
    sorted_stream, sort_report = session.run_job(
        bucketed, "sort-records", output=sphere.OutputSpec(sphere.OutputMode.LOCAL),
        limits=sphere.WHOLE_FILE_LIMITS,
        job_id=(job_id + "-sorted") if job_id else None)
    return sorted_stream, {"shuffle": shuffle_report, "sort": sort_report}


# ------------------------------------------------------------ verification

def multiset_checksum(records) -> tuple[int, int]:
    """Order-independent stream checksum: record count and the sum of
    per-record digests."""
    count = 0
    total = 0
    for record in records:
        count += 1
        total = (total + int.from_bytes(
            hashlib.sha1(record).digest()[:16], "big")) % (1 << 128)
    return count, total


def check_sorted(records) -> bool:
    previous = None
    for record in records:
        key = record[:KEY_SIZE]
        if previous is not None and key < previous:
            return False
        previous = key
    return True


# ------------------------------------------------------------- entropy/split

def entropy(class_counts) -> float:
    """Shannon entropy in bits of a count vector; 0*log(0) = 0."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError("class counts must be non-negative")
    total = sum(counts)
    if total == 0:
        raise ValueError("entropy of an empty distribution is undefined")
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def split_gain(parent_entropy: float, left: tuple[int, int],
               right: tuple[int, int]) -> float:
    nl = left[0] + left[1]
    nr = right[0] + right[1]
    n = nl + nr
    return parent_entropy - (nl / n) * entropy(left) - (nr / n) * entropy(right)


def midpoint_key(a: bytes, b: bytes) -> bytes:
    width = max(len(a), len(b))
    mid = (int.from_bytes(a, "big") + int.from_bytes(b, "big")) // 2
    return mid.to_bytes(width, "big")


@dataclass
class SplitResult:
    threshold: bytes | None
    gain: float
    left_counts: tuple[int, int]
    right_counts: tuple[int, int]

    def to_line(self) -> str:
        return json.dumps({
            "threshold": self.threshold.hex() if self.threshold is not None else None,
            "gain": self.gain,
            "left": list(self.left_counts),
            "right": list(self.right_counts),
        })


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of non-empty class counts; 0*log(0) = 0."""
    p = counts / counts.sum(axis=1, keepdims=True)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)


class KeyLabels:
    """The keys (as a key_column) and 0/1 labels of a run of records."""

    def __init__(self, keys: np.ndarray, labels):
        self.keys = keys
        self.labels = np.asarray(labels, dtype=np.int64)
        if len(self.keys) != len(self.labels):
            raise ValueError("%d keys for %d labels" % (len(self.keys), len(self.labels)))

    @classmethod
    def of_records(cls, records: RecordBatch) -> "KeyLabels":
        """Keys and record_label of every record, from one read of each
        record's first KEY_SIZE + 1 bytes."""
        heads, lengths = records.heads(KEY_SIZE + 1)
        if (lengths <= KEY_SIZE).any():
            raise IndexError("a record of %d bytes or fewer has no label byte" % KEY_SIZE)
        return cls(_key_column(heads[:, :KEY_SIZE], np.minimum(lengths, KEY_SIZE)),
                   heads[:, KEY_SIZE] & 1)

    @classmethod
    def from_pairs(cls, pairs) -> "KeyLabels":
        pairs = list(pairs)
        keys = [key for key, _ in pairs]
        width = max(map(len, keys), default=0)
        return cls(key_column(RecordBatch.from_records(keys), width),
                   [label for _, label in pairs])

    @classmethod
    def concatenate(cls, parts: list["KeyLabels"]) -> "KeyLabels":
        if not parts:
            return cls(np.empty(0, "S%d" % (KEY_SIZE + 2)), ())
        return cls(np.concatenate([p.keys for p in parts]),
                   np.concatenate([p.labels for p in parts]))


def terasplit_pairs(pairs) -> SplitResult:
    """Best single entropy split of a key-sorted (key, label) sequence.

    `pairs` is an iterable of (key, label) tuples, read once, or a
    KeyLabels of the same as arrays. The candidate thresholds are the
    midpoints between adjacent distinct keys, ties broken toward the
    smallest threshold. numpy scores every cut; its log2 may round
    differently from math.log2, so split_gain re-scores the cuts within
    1e-9 of the best and decides.
    """
    if not isinstance(pairs, KeyLabels):
        pairs = KeyLabels.from_pairs(pairs)
    keys, labels = pairs.keys, pairs.labels
    if (keys[1:] < keys[:-1]).any():
        raise ValueError("input is not sorted by key")
    if not len(labels):
        raise ValueError("cannot split an empty stream")
    n_left = np.flatnonzero(keys[1:] != keys[:-1]) + 1  # records left of each cut
    ones = np.cumsum(labels)  # label-1 records among the first i + 1
    total1 = int(ones[-1])
    total0 = len(labels) - total1
    if total0 == 0 or total1 == 0 or not len(n_left):
        # one label, or one distinct key with mixed labels: nothing to cut
        return SplitResult(None, 0.0, (0, 0), (total0, total1))
    parent = entropy((total0, total1))
    n = len(labels)
    left = np.column_stack((n_left - ones[n_left - 1], ones[n_left - 1]))
    right = (total0, total1) - left
    gains = parent - (n_left / n) * _entropies(left) - ((n - n_left) / n) * _entropies(right)
    best = None
    for i in np.flatnonzero(gains >= gains.max() - 1e-9).tolist():
        cut = (tuple(map(int, left[i])), tuple(map(int, right[i])))
        gain = split_gain(parent, *cut)
        if best is None or gain > best[1]:
            best = (i, gain, cut)
    i, gain, (left_counts, right_counts) = best
    cut = int(n_left[i])
    return SplitResult(midpoint_key(key_bytes(keys, cut - 1), key_bytes(keys, cut)),
                       max(gain, 0.0), left_counts, right_counts)


def terasplit(session, stream) -> SplitResult:
    """Read a sorted stream into the client, batch by batch, and compute
    its best split."""
    names = stream.names if isinstance(stream, sphere.Stream) else list(stream)
    return terasplit_pairs(KeyLabels.concatenate(
        [KeyLabels.of_records(batch) for batch in session.iter_batches(names)]))


def terasplit_local(path) -> SplitResult:
    data, index = read_record_file(path)
    if index is None:
        raise ValueError("%s has no record index" % path)
    return terasplit_pairs(KeyLabels.of_records(RecordBatch(data, index)))
