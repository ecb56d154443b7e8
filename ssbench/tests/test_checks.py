"""Each output check passes on a right answer and fails on a broken one."""

import copy
import random

import numpy as np
import pytest

import checks
from sectorsphere import angle, benchmarks


@pytest.fixture
def records():
    rng = random.Random(4)
    out = [rng.randbytes(100) for _ in range(2000)]
    out.append(out[7][:10] + rng.randbytes(90))  # one repeated key
    return out


def sorted_by_key(records):
    return sorted(records, key=lambda r: r[:10])


def test_sorted_output_passes(records):
    assert checks.check_sorted_output(sorted_by_key(records), records) == []


def test_sorted_output_fails_on_swapped_pair(records):
    out = sorted_by_key(records)
    out[100], out[101] = out[101], out[100]
    assert any("smaller key" in p for p in checks.check_sorted_output(out, records))


def test_sorted_output_fails_on_dropped_record(records):
    out = sorted_by_key(records)
    del out[500]
    assert any("records" in p for p in checks.check_sorted_output(out, records))


def test_sorted_output_fails_on_flipped_byte(records):
    out = sorted_by_key(records)
    out[42] = out[42][:50] + bytes([out[42][50] ^ 1]) + out[42][51:]
    assert any("multiset" in p for p in checks.check_sorted_output(out, records))


def test_read_fixed_records_rejects_ragged_file(tmp_path):
    path = tmp_path / "part.dat"
    path.write_bytes(b"x" * 250)
    with pytest.raises(ValueError):
        checks.read_fixed_records(path)


def program_split(records):
    return benchmarks.terasplit_pairs(
        (r[:10], benchmarks.record_label(r)) for r in sorted_by_key(records))


def test_split_matches_exhaustive_scan(records):
    assert checks.check_split(program_split(records), checks.exhaustive_split(records)) == []


def test_split_fails_on_moved_threshold(records):
    result = program_split(records)
    result.threshold = (int.from_bytes(result.threshold, "big") + 1).to_bytes(10, "big")
    assert checks.check_split(result, checks.exhaustive_split(records))


def test_split_fails_on_wrong_counts(records):
    result = program_split(records)
    result.left_counts = (result.left_counts[0] + 1, result.left_counts[1])
    assert checks.check_split(result, checks.exhaustive_split(records))


def test_split_fails_on_wrong_gain(records):
    result = program_split(records)
    result.gain += 1e-6
    assert checks.check_split(result, checks.exhaustive_split(records))


def test_split_of_one_label_has_no_threshold():
    same = [bytes([i]) * 10 + b"\x00" * 90 for i in range(5)]
    expected = checks.exhaustive_split(same)
    assert expected["best"] == [(None, (0, 0), (5, 0))]
    assert checks.check_split(program_split(same), expected) == []


WINDOWS, SHIFT, OFFSET = 25, 20, 25.0


@pytest.fixture(scope="module")
def pipeline():
    vectors, base = angle.synthetic_windows(WINDOWS, 3, 4, 60, seed=1, shift_window=SHIFT,
                                            shift_offset=OFFSET)
    models, series = angle.run_pipeline_local(vectors, 1.0, 0.0, 3, 99)
    return models, series, base


def check(models, series, base):
    return checks.check_angle(models, series, base, SHIFT, OFFSET, WINDOWS,
                              angle.DEFAULT_HISTORY, angle.DEFAULT_Z)


def test_angle_passes(pipeline):
    assert check(*pipeline) == []


def test_angle_fails_on_moved_center(pipeline):
    models, series, base = copy.deepcopy(pipeline)
    models[5].centers[1] += 1.0
    problems = check(models, series, base)
    assert any("window 5" in p for p in problems)
    assert any("drift" in p for p in problems)


def test_angle_fails_on_missed_planted_window(pipeline):
    models, series, base = copy.deepcopy(pipeline)
    series.flags.remove(SHIFT)
    assert any("not flagged" in p for p in check(models, series, base))


def test_angle_fails_on_wrong_emergent_center(pipeline):
    models, series, base = copy.deepcopy(pipeline)
    series.emergent[SHIFT] = [i for i in range(3) if i not in series.emergent[SHIFT]][:1]
    assert any("emergent" in p for p in check(models, series, base))


def test_angle_fails_on_flag_below_three_sigma(pipeline):
    models, series, base = copy.deepcopy(pipeline)
    series.flags.append(12)
    assert any("window 12" in p for p in check(models, series, base))


def test_angle_fails_on_missing_window(pipeline):
    models, series, base = copy.deepcopy(pipeline)
    del models[3]
    assert check(models, series, base)


@pytest.fixture
def archive():
    files = {"a/x.bin": (b"abc" * 100, None), "a/y.dat": (b"0123456789", b"\x00" * 16)}
    holders = {name: ["n0", "n1", "n2"] for name in files}
    return files, dict(files), holders, copy.deepcopy(holders)


def test_archive_passes(archive):
    assert checks.check_archive(*archive, target=3) == []


def test_archive_fails_on_flipped_byte(archive):
    files, downloaded, copies, located = archive
    data, index = downloaded["a/x.bin"]
    downloaded["a/x.bin"] = (b"b" + data[1:], index)
    assert checks.check_archive(files, downloaded, copies, located, target=3)


def test_archive_fails_on_lost_index(archive):
    files, downloaded, copies, located = archive
    downloaded["a/y.dat"] = (downloaded["a/y.dat"][0], None)
    assert checks.check_archive(files, downloaded, copies, located, target=3)


def test_archive_fails_on_missing_replica(archive):
    files, downloaded, copies, located = archive
    copies["a/y.dat"] = ["n0", "n1"]
    assert checks.check_archive(files, downloaded, copies, located, target=3)


def test_archive_fails_when_registry_disagrees_with_disk(archive):
    files, downloaded, copies, located = archive
    located["a/y.dat"] = ["n0", "n1", "n3"]
    assert checks.check_archive(files, downloaded, copies, located, target=3)


def test_drifts_match_definition():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert checks.drifts([a, b]).tolist() == [1.0 + 2.0]
