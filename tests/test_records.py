import pytest

from sectorsphere.errors import IntegrityError
from sectorsphere.records import (
    RecordBatch,
    RecordIndex,
    index_path,
    read_record_file,
    write_record_file,
)


def test_uniform_index_layout():
    index = RecordIndex.uniform(2, 100)
    assert index.array.tolist() == [[0, 100], [100, 100]]
    blob = index.to_bytes()
    assert blob[:8] == (0).to_bytes(8, "little")
    assert blob[16:24] == (100).to_bytes(8, "little")
    assert RecordIndex.from_bytes(blob) == index


def test_binary_round_trip_with_gaps():
    index = RecordIndex([(0, 5), (7, 3), (12, 0)])
    assert RecordIndex.from_bytes(index.to_bytes()) == index
    index.validate(12)  # gaps are fine; overlap is not


def test_validate_rejects_overlap_and_overrun():
    with pytest.raises(IntegrityError):
        RecordIndex([(0, 10), (5, 10)]).validate(100)
    with pytest.raises(IntegrityError):
        RecordIndex([(0, 10), (10, 200)]).validate(100)
    with pytest.raises(IntegrityError):
        RecordIndex.from_bytes(b"\x00" * 15)


def test_write_and_read_record_file(tmp_path):
    data = b"aaaabbbbcc"
    index = RecordIndex([(0, 4), (4, 4), (8, 2)])
    path = tmp_path / "f.dat"
    write_record_file(path, data, index)
    assert index_path(path).exists()
    back_data, back_index = read_record_file(path)
    assert back_data == data
    assert back_index == index
    assert list(RecordBatch(back_data, back_index)) == [b"aaaa", b"bbbb", b"cc"]


def test_read_without_index(tmp_path):
    path = tmp_path / "raw.bin"
    write_record_file(path, b"opaque", None)
    data, index = read_record_file(path)
    assert data == b"opaque" and index is None


def test_validate_rejects_u64_overflow():
    with pytest.raises(IntegrityError):
        RecordIndex([(2**63, 2**63)]).validate(100)
    # the end of the second entry wraps to 5, inside the file
    with pytest.raises(IntegrityError):
        RecordIndex([(0, 10), (2**64 - 5, 10)]).validate(2**64 - 1)


def test_from_bytes_is_a_read_only_view():
    blob = RecordIndex([(0, 5), (7, 3)]).to_bytes()
    index = RecordIndex.from_bytes(blob)
    assert index.array.shape == (2, 2) and not index.array.flags.writeable
    assert index.array.tolist() == [[0, 5], [7, 3]]
    assert len(RecordIndex.from_bytes(b"")) == 0


def test_from_sizes_and_uniform_start_offset():
    assert RecordIndex.from_sizes([3, 0, 4], start=10).array.tolist() == [
        [10, 3], [13, 0], [13, 4]]
    assert RecordIndex.from_sizes(iter([2, 2])) == RecordIndex.uniform(2, 2)
    assert RecordIndex.uniform(2, 100, start=200).array.tolist() == [[200, 100], [300, 100]]
