"""The columnar segment path against the per-record rules it replaces, on
random variable-length records: record batches, the key-range and sort
operators of terasort, angle's window operator and the terasplit kernel."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exhaustive_split
from sectorsphere import angle
from sectorsphere.benchmarks import (
    KEY_SIZE,
    KeyLabels,
    _key_range_bucket,
    _key_range_segment,
    _sort_segment,
    key_bytes,
    key_column,
    record_label,
    terasplit_pairs,
)
from sectorsphere.records import RecordBatch, RecordIndex

# Bytes from a tiny alphabet, so that duplicate keys, keys equal to a
# boundary, keys ending in 0x00 and keys that are prefixes of others are
# all common. Records run from empty to past KEY_SIZE.
ALPHABET = st.sampled_from([0x00, 0x01, 0xFF])
records_st = st.lists(st.lists(ALPHABET, max_size=KEY_SIZE + 4).map(bytes), max_size=40)


def batch_of(records, gaps):
    """The records in one buffer, with `gaps[i]` filler bytes before record i."""
    data, entries = b"", []
    for record, gap in zip(records, gaps):
        data += b"\xee" * gap
        entries.append((len(data), len(record)))
        data += record
    return RecordBatch(data, RecordIndex(entries))


@st.composite
def segments(draw):
    records = draw(records_st)
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(records), max_size=len(records)))
    return records, batch_of(records, gaps)


def key_range_params(boundaries):
    return json.dumps({"boundaries": [b.hex() for b in boundaries]}).encode()


# ------------------------------------------------------------------ batches

@settings(max_examples=200, deadline=None)
@given(segments(), st.data())
def test_batch_take_pack_and_heads_match_slicing(segment, data):
    records, batch = segment
    assert list(batch) == records
    order = data.draw(st.lists(st.integers(0, max(0, len(records) - 1)),
                               max_size=len(records) * 2 if records else 0))
    assert list(batch.take(order)) == [records[i] for i in order]
    packed, index = batch.pack()
    assert packed == b"".join(records) and list(RecordBatch(packed, index)) == records
    heads, lengths = batch.heads(4)
    assert [bytes(h[:n]) for h, n in zip(heads, lengths)] == [r[:4] for r in records]
    assert not any(h[n:].any() for h, n in zip(heads, lengths))


def test_fixed_size_records_take_one_row_gather():
    records = [bytes([i]) * 5 for i in range(6)]
    batch = batch_of(records, [2] + [0] * 5)  # fixed stride after a leading gap
    assert list(batch.take([5, 0, 3])) == [records[5], records[0], records[3]]


# ---------------------------------------------------------------- terasort

@settings(max_examples=300, deadline=None)
@given(segments(), st.lists(st.lists(ALPHABET, max_size=KEY_SIZE).map(bytes), max_size=4),
       st.data())
def test_key_range_operator_equals_bisect_per_record(segment, drawn, data):
    records, batch = segment
    keys = sorted({r[:KEY_SIZE] for r in records})
    if keys:  # boundaries equal to keys of the segment
        drawn += data.draw(st.lists(st.sampled_from(keys), max_size=3))
    params = key_range_params(sorted(drawn))
    out = _key_range_segment(batch, params)
    assert list(out) == records
    assert out.buckets.tolist() == [_key_range_bucket(r, params) for r in records]


def test_key_range_on_empty_and_one_record_segments():
    params = key_range_params([b"ab", b"ab\x00"])
    assert _key_range_segment(RecordBatch(), params).buckets.tolist() == []
    for record, bucket in ((b"ab", 1), (b"ab\x00", 2), (b"a", 0), (b"", 0)):
        out = _key_range_segment(RecordBatch.from_records([record]), params)
        assert out.buckets.tolist() == [bucket] == [_key_range_bucket(record, params)]


@settings(max_examples=300, deadline=None)
@given(segments())
def test_sort_operator_equals_stable_sort_by_key(segment):
    records, batch = segment
    out = _sort_segment(batch, b"")
    assert list(out) == sorted(records, key=lambda r: r[:KEY_SIZE])


def test_sort_keeps_input_order_among_equal_keys():
    # large enough that numpy's unstable sorts stop falling back to a
    # stable insertion sort
    rng = random.Random(2)
    records = [bytes([rng.randrange(4)]) * KEY_SIZE + i.to_bytes(4, "big") for i in range(2000)]
    out = _sort_segment(RecordBatch.from_records(records), b"")
    assert list(out) == sorted(records, key=lambda r: r[:KEY_SIZE])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(ALPHABET, min_size=KEY_SIZE, max_size=KEY_SIZE).map(bytes),
                          st.binary(min_size=1, max_size=3)), min_size=1, max_size=40))
@example([(b"\x01" + b"\x00" * 9, b"\x01"), (b"\x01" + b"\x00" * 8 + b"\x01", b"\x00")])
def test_array_terasplit_equals_tuple_path_and_oracle(keyed):
    records = sorted((key + tail for key, tail in keyed), key=lambda r: r[:KEY_SIZE])
    pairs = [(r[:KEY_SIZE], record_label(r)) for r in records]
    mine = terasplit_pairs(KeyLabels.of_records(RecordBatch.from_records(records)))
    tuples = terasplit_pairs(iter(pairs))
    oracle = exhaustive_split(pairs)
    for result in (mine, tuples):
        assert (result.threshold, result.gain, result.left_counts, result.right_counts) == (
            oracle.threshold, oracle.gain, oracle.left_counts, oracle.right_counts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(ALPHABET, max_size=KEY_SIZE).map(bytes), st.integers(0, 1)),
                min_size=1, max_size=40))
def test_terasplit_keeps_short_keys_and_trailing_nuls(pairs):
    pairs = sorted(pairs, key=lambda p: p[0])
    mine, oracle = terasplit_pairs(pairs), exhaustive_split(pairs)
    assert (mine.threshold, mine.gain, mine.left_counts, mine.right_counts) == (
        oracle.threshold, oracle.gain, oracle.left_counts, oracle.right_counts)


def test_key_column_round_trips_keys_numpy_would_shorten():
    keys = [b"", b"\x00", b"ab", b"ab\x00", b"ab\x00\x00"]
    column = key_column(RecordBatch.from_records(keys))
    assert [key_bytes(column, i) for i in range(len(keys))] == keys
    assert column.argsort(kind="stable").tolist() == [0, 1, 2, 3, 4]


def test_label_needs_a_byte_past_the_key():
    with pytest.raises(IndexError):
        KeyLabels.of_records(RecordBatch.from_records([b"k" * KEY_SIZE]))
    with pytest.raises(ValueError):
        terasplit_pairs(KeyLabels.of_records(RecordBatch()))


# ------------------------------------------------------------------- angle

@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=30),
       st.floats(-100, 100), st.floats(0.01, 50), st.sampled_from([",", ";", " "]))
def test_window_operator_equals_window_bucket(stamps, t0, length, delimiter):
    vectors = [angle.FeatureVector("e%d" % i, t, [float(i), -0.5]) for i, t in enumerate(stamps)]
    records = [angle.format_feature_record(v, delimiter) + b"\n" for v in vectors]
    params = json.dumps({"t0": t0, "length": length, "delimiter": delimiter}).encode()
    out = angle._window_segment(RecordBatch.from_records(records), params)
    assert list(out) == records
    assert out.buckets.tolist() == [angle._window_bucket(r, params) for r in records]


def test_window_operator_rejects_short_and_unbounded_records():
    params = json.dumps({"t0": 0.0, "length": 1.0}).encode()
    for bad in (b"e1,0.5\n", b"e1,nan,1.0\n", b"e1,inf,1.0\n"):
        with pytest.raises(ValueError):
            angle._window_segment(RecordBatch.from_records([bad]), params)
