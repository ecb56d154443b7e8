import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exhaustive_split
from sectorsphere.benchmarks import (
    KEY_SIZE,
    RECORD_SIZE,
    SplitResult,
    check_sorted,
    entropy,
    midpoint_key,
    multiset_checksum,
    record_label,
    teragen,
    terasort,
    terasplit,
    terasplit_pairs,
)
from sectorsphere.records import RecordIndex, read_record_file
from sectorsphere.sphere import SegmentLimits


# ------------------------------------------------------------------ teragen

def test_teragen_zero_records(tmp_path):
    path = teragen(0, 1, tmp_path / "zero.dat")
    data, index = read_record_file(path)
    assert data == b"" and index is not None and len(index) == 0


def test_teragen_two_records_layout(tmp_path):
    path = teragen(2, 1, tmp_path / "two.dat")
    data, index = read_record_file(path)
    assert len(data) == 200
    assert index.array.tolist() == [[0, 100], [100, 100]]


def test_teragen_deterministic(tmp_path):
    a = teragen(500, 7, tmp_path / "a.dat").read_bytes()
    b = teragen(500, 7, tmp_path / "b.dat").read_bytes()
    c = teragen(500, 8, tmp_path / "c.dat").read_bytes()
    assert a == b
    assert a != c


# ------------------------------------------------------------------ entropy

def test_entropy_examples():
    assert entropy((5, 5)) == 1.0
    assert entropy((10, 0)) == 0.0
    assert abs(entropy((2, 6)) - 0.811278) < 1e-6


def test_entropy_errors():
    with pytest.raises(ValueError):
        entropy((0, 0))
    with pytest.raises(ValueError):
        entropy((3, -1))


def test_entropy_symmetric_and_maximal_at_uniform():
    rng = random.Random(5)
    for _ in range(200):
        counts = [rng.randrange(0, 50) for _ in range(4)]
        if not any(counts):
            continue
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert math.isclose(entropy(counts), entropy(shuffled), rel_tol=1e-12)
        assert entropy(counts) <= 2.0 + 1e-12  # log2(4), maximal at uniform
    assert entropy((7, 7, 7, 7)) == 2.0


# ---------------------------------------------------------------- terasplit

def key_of(i):
    return i.to_bytes(KEY_SIZE, "big")


def test_perfect_split():
    pairs = [(key_of(k), 0 if k <= 3 else 1) for k in range(1, 7)]
    result = terasplit_pairs(pairs)
    assert result.gain == 1.0
    assert key_of(3) <= result.threshold < key_of(4)
    assert result.left_counts == (3, 0)
    assert result.right_counts == (0, 3)


def test_all_labels_equal_no_split():
    pairs = [(key_of(k), 1) for k in range(10)]
    result = terasplit_pairs(pairs)
    assert result.threshold is None and result.gain == 0.0


def test_unsorted_input_rejected():
    with pytest.raises(ValueError):
        terasplit_pairs([(key_of(2), 0), (key_of(1), 1)])


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        terasplit_pairs([])


def test_midpoint_key():
    assert midpoint_key(key_of(3), key_of(4)) == key_of(3)
    assert midpoint_key(key_of(10), key_of(20)) == key_of(15)


def brute_force_split(pairs):
    """Exhaustive oracle: evaluate the gain of every candidate threshold,
    independent of the single-scan implementation."""
    pairs = list(pairs)
    keys = sorted({k for k, _ in pairs})
    t0 = sum(1 for _, label in pairs if label == 0)
    t1 = len(pairs) - t0
    if t0 == 0 or t1 == 0:
        return SplitResult(None, 0.0, (0, 0), (t0, t1))

    def h(c0, c1):
        total = c0 + c1
        out = 0.0
        for c in (c0, c1):
            if c:
                p = c / total
                out -= p * math.log2(p)
        return out

    parent = h(t0, t1)
    best = None
    for i in range(len(keys) - 1):
        threshold = midpoint_key(keys[i], keys[i + 1])
        l0 = sum(1 for k, label in pairs if k <= threshold and label == 0)
        l1 = sum(1 for k, label in pairs if k <= threshold and label == 1)
        gain = parent - ((l0 + l1) / (t0 + t1)) * h(l0, l1) \
            - ((t0 + t1 - l0 - l1) / (t0 + t1)) * h(t0 - l0, t1 - l1)
        if best is None or gain > best[1]:
            best = (threshold, gain, (l0, l1), (t0 - l0, t1 - l1))
    if best is None:
        return SplitResult(None, 0.0, (0, 0), (t0, t1))
    return SplitResult(best[0], max(best[1], 0.0), best[2], best[3])


@pytest.mark.parametrize("key_space,n", [(16, 400), (256, 1000), (10**9, 600)])
def test_terasplit_equals_exhaustive_oracle(key_space, n):
    rng = random.Random(key_space)
    for trial in range(5):
        pairs = sorted((key_of(rng.randrange(key_space)), rng.randrange(2))
                       for _ in range(n))
        mine = terasplit_pairs(pairs)
        oracle = brute_force_split(pairs)
        assert mine.gain == oracle.gain  # bit-exact, same arithmetic
        assert mine.threshold == oracle.threshold
        assert mine.left_counts == oracle.left_counts
        assert mine.right_counts == oracle.right_counts
        parent = entropy((mine.left_counts[0] + mine.right_counts[0],
                          mine.left_counts[1] + mine.right_counts[1]))
        assert 0.0 <= mine.gain <= parent <= 1.0


def labelled_runs(draw_keys):
    """Sorted (key, label) pairs from (key, label) draws."""
    return sorted((key_of(k), label) for k, label in draw_keys)


sorted_pairs = st.one_of(
    # few distinct keys: many duplicates, often a single label
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=1, max_size=60)
    .map(labelled_runs),
    # exactly two distinct keys
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=30)
    .map(labelled_runs),
    # mirrored label runs: cut i and its mirror image score the same gain up
    # to rounding, so the tie-break decides
    st.lists(st.integers(0, 1), min_size=1, max_size=40)
    .map(lambda labels: [(key_of(i), label)
                         for i, label in enumerate(labels + labels[::-1])]),
)


@settings(max_examples=300, deadline=None)
@given(sorted_pairs)
@example([(key_of(1), 0), (key_of(2), 1), (key_of(3), 1), (key_of(4), 0)])
@example([(key_of(5), 1)] * 3)
@example([(key_of(5), 0), (key_of(5), 1)])
def test_terasplit_equals_exhaustive_oracle_bit_for_bit(pairs):
    mine = terasplit_pairs(pairs)
    oracle = exhaustive_split(pairs)
    assert mine.threshold == oracle.threshold
    assert mine.gain == oracle.gain
    assert mine.left_counts == oracle.left_counts
    assert mine.right_counts == oracle.right_counts


def test_terasplit_result_ignores_rounding_of_the_vector_scores(monkeypatch):
    """numpy's log2 may round differently from math.log2; the kernel must
    still return the scalar arithmetic's best cut, ties to the smallest key."""
    from sectorsphere import benchmarks

    exact = benchmarks._entropies
    noise = random.Random(4)
    monkeypatch.setattr(benchmarks, "_entropies", lambda counts: exact(counts) + [
        noise.uniform(-1e-12, 1e-12) for _ in range(len(counts))])
    rng = random.Random(8)
    for trial in range(200):
        labels = [rng.randrange(2) for _ in range(rng.randrange(1, 30))]
        for pairs in ([(key_of(i), label) for i, label in enumerate(labels + labels[::-1])],
                      sorted((key_of(rng.randrange(8)), label) for label in labels)):
            mine, oracle = terasplit_pairs(pairs), exhaustive_split(pairs)
            assert (mine.threshold, mine.gain) == (oracle.threshold, oracle.gain)


def test_terasplit_single_pass():
    rng = random.Random(1)
    pairs = sorted((key_of(rng.randrange(50)), rng.randrange(2)) for _ in range(500))
    reads = {"n": 0}

    def counting():
        for p in pairs:
            reads["n"] += 1
            yield p

    terasplit_pairs(counting())
    assert reads["n"] == len(pairs)  # exactly one pass over the records


# ----------------------------------------------------------------- terasort

def upload_terarecords(client, name, records):
    client.upload(b"".join(records), name,
                  RecordIndex.uniform(len(records), RECORD_SIZE))


def make_records(rng, n):
    return [rng.randbytes(RECORD_SIZE) for _ in range(n)]


def test_terasort_already_sorted_is_identity(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    rng = random.Random(6)
    records = sorted(make_records(rng, 300), key=lambda r: r[:KEY_SIZE])
    upload_terarecords(client, "pre.dat", records)
    out, _ = terasort(client, ["pre.dat"], sample_target=100)
    result = list(client.iter_records(out.names))
    assert result == records


def test_terasort_three_reversed(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    records = [bytes([9 - i]) * RECORD_SIZE for i in range(3)]
    upload_terarecords(client, "rev.dat", records)
    out, _ = terasort(client, ["rev.dat"], sample_target=10)
    result = list(client.iter_records(out.names))
    assert result == sorted(records)  # any comparison sort agrees


def test_terasort_with_duplicates_and_multiset(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(40)
    base = make_records(rng, 50)
    records = [rng.choice(base) for _ in range(600)]
    upload_terarecords(client, "dup.dat", records)
    out, _ = terasort(client, ["dup.dat"], sample_target=200,
                      limits=SegmentLimits(5000, 20000))
    result = list(client.iter_records(out.names))
    assert check_sorted(result)
    assert multiset_checksum(result) == multiset_checksum(records)
    assert sorted(result) == sorted(records)


def test_terasort_empty_input(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    upload_terarecords(client, "none.dat", [])
    out, reports = terasort(client, ["none.dat"], sample_target=10)
    assert list(client.iter_records(out.names)) == []


def test_terasort_spans_nodes_and_keeps_everything(make_cluster):
    cluster = make_cluster(4)
    client = cluster.client()
    rng = random.Random(77)
    names = []
    originals = []
    for i in range(4):
        records = make_records(rng, 500)
        name = "ts/part-%d.dat" % i
        upload_terarecords(client, name, records)
        names.append(name)
        originals.extend(records)
    out, reports = terasort(client, names, sample_target=400,
                            limits=SegmentLimits(10_000, 30_000))
    result = list(client.iter_records(out.names))
    assert len(result) == 2000
    assert check_sorted(result)
    assert multiset_checksum(result) == multiset_checksum(originals)
    # output bucket files live on their shuffle destinations, range-ordered
    destinations = list(cluster.nodes)
    assert len(out.files) == len([f for f in out.files])
    previous_last = None
    for f in out.files:
        recs = client.read_records(f.name, 0, f.records)
        if not recs:
            continue
        if previous_last is not None:
            assert previous_last <= recs[0][:KEY_SIZE]
        previous_last = recs[-1][:KEY_SIZE]


def test_record_label_is_payload_parity():
    record = bytes(range(100))
    assert record_label(record) == record[10] & 1
