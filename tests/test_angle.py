import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorsphere import scenarios
from sectorsphere.angle import (
    ClusterModel,
    EmergentCluster,
    FeatureVector,
    cluster_drift,
    cluster_window,
    collect_emergent,
    emergence_score,
    feature_columns,
    flag_spikes,
    format_feature_record,
    member_order,
    parse_feature_record,
    read_feature_file,
    run_pipeline_distributed,
    run_pipeline_local,
    synthetic_windows,
    window_partition,
    write_feature_file,
)
from sectorsphere.records import RecordIndex, read_record_file


def fv(t, values, entity="e"):
    return FeatureVector(entity=entity, timestamp=t, values=np.array(values, float))


# ------------------------------------------------------------------ windows

def test_window_partition_example():
    vectors = [fv(0, [1.0]), fv(5, [2.0]), fv(15, [3.0])]
    windows = window_partition(vectors, 10, 0)
    assert [w.index for w in windows] == [0, 1]
    assert [len(w.members) for w in windows] == [2, 1]
    assert windows[0].start == 0 and windows[1].start == 10


def test_window_partition_empty_input():
    assert window_partition([], 10, 0) == []


def test_window_partition_keeps_empty_middle_windows():
    windows = window_partition([fv(0, [0.0]), fv(25, [0.0])], 10, 0)
    assert [w.index for w in windows] == [0, 1, 2]
    assert [len(w.members) for w in windows] == [1, 0, 1]


def test_window_partition_randomized_per_vector_oracle():
    rng = random.Random(14)
    vectors = [fv(rng.uniform(-50, 50), [rng.random()]) for _ in range(500)]
    d, t0 = 7.5, -3.0
    windows = window_partition(vectors, d, t0)
    assert sum(len(w.members) for w in windows) == len(vectors)
    by_index = {w.index: w for w in windows}
    for v in vectors:
        expected = math.floor((v.timestamp - t0) / d)
        assert any(m is v for m in by_index[expected].members)


def test_window_partition_rejects_bad_length():
    with pytest.raises(ValueError):
        window_partition([fv(0, [0.0])], 0)


# ------------------------------------------------------------------ k-means

def test_single_cluster_closed_form():
    rng = np.random.default_rng(3)
    points = rng.normal(5.0, 1.0, size=(200, 3))
    model = cluster_window(points, k=1, seed=0)
    assert np.allclose(model.centers[0], points.mean(axis=0))
    expected_var = float(((points - points.mean(axis=0)) ** 2).sum(axis=1).mean())
    assert math.isclose(model.variances[0], expected_var, rel_tol=1e-9)
    assert model.weights[0] == 1.0 and model.mixes[0] == 1.0


def test_two_separated_blobs_recovered():
    rng = np.random.default_rng(8)
    radius = 0.5
    blob_a = rng.normal(0.0, radius, size=(150, 2))
    blob_b = rng.normal(0.0, radius, size=(150, 2)) + np.array([10.0, -4.0])
    points = np.vstack([blob_a, blob_b])
    model = cluster_window(points, k=2, seed=1)
    means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)], key=lambda c: c[0])
    found = sorted(model.centers, key=lambda c: c[0])
    for center, mean in zip(found, means):
        assert np.linalg.norm(center - mean) < 0.1 * radius + 0.05


def test_same_seed_identical_model():
    rng = np.random.default_rng(5)
    points = rng.uniform(0, 1, size=(120, 4))
    a = cluster_window(points, k=4, seed=42)
    b = cluster_window(points, k=4, seed=42)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.variances, b.variances)
    assert np.array_equal(a.weights, b.weights)


def test_objective_never_increases():
    rng = np.random.default_rng(9)
    points = rng.uniform(-5, 5, size=(300, 3))
    model = cluster_window(points, k=6, seed=7)
    history = model.objective_history
    assert len(history) >= 2
    assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


def test_too_few_members_reduces_k_with_warning():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = cluster_window(points, k=5, seed=0)
    assert model.k == 3
    assert any("reducing k" in str(w.message) for w in caught)


def test_weights_sum_to_one_and_mixes_required():
    points = np.random.default_rng(2).uniform(0, 1, size=(50, 2))
    model = cluster_window(points, k=3, seed=3)
    assert math.isclose(float(model.weights.sum()), 1.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        ClusterModel(centers=[[0.0]], variances=[1.0], weights=[1.0], mixes=[0.5])
    with pytest.raises(ValueError):
        ClusterModel(centers=[[0.0]], variances=[0.0], weights=[1.0], mixes=[1.0])


def test_duplicate_points_keep_positive_variance():
    points = np.zeros((20, 2))
    model = cluster_window(points, k=2, seed=0)
    assert np.all(model.variances > 0)


# -------------------------------------------------------------------- drift

def test_drift_of_identical_models_is_zero():
    centers = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
    assert cluster_drift(centers, centers) == 0.0


def test_drift_single_center_squared_distance():
    assert cluster_drift(np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]])) == 9.0
    assert cluster_drift(np.array([[1.0, 1.0]]), np.array([[1.0, 4.0]])) == 9.0


def test_drift_matches_brute_force_matcher():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(-5, 5, size=(3, 4))
        b = rng.uniform(-5, 5, size=(5, 4))
        expected = 0.0
        for center in a:
            expected += min(float(((center - other) ** 2).sum()) for other in b)
        assert math.isclose(cluster_drift(a, b), expected, rel_tol=1e-12)


def test_drift_invariant_under_center_permutation():
    rng = np.random.default_rng(6)
    a = rng.uniform(0, 1, size=(4, 3))
    b = rng.uniform(0, 1, size=(4, 3))
    value = cluster_drift(a, b)
    for _ in range(5):
        pa = a[rng.permutation(len(a))]
        pb = b[rng.permutation(len(b))]
        assert math.isclose(cluster_drift(pa, pb), value, rel_tol=1e-12)
        assert cluster_drift(pa, pb) >= 0.0


def test_drift_needs_centers():
    with pytest.raises(ValueError):
        cluster_drift(np.empty((0, 2)), np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------- detection

def test_constant_series_never_flags():
    assert flag_spikes([2.0] * 30, history_len=10, z_threshold=3.0) == []


def test_flat_series_with_spike_flags_exactly_once():
    deltas = [1.0] * 15 + [101.0] + [1.0] * 8
    assert flag_spikes(deltas, history_len=10, z_threshold=3.0) == [15]


def test_insufficient_history_no_flags():
    assert flag_spikes([1.0, 50.0], history_len=10, z_threshold=3.0) == []


def test_planted_shift_flags_only_the_shift_window():
    vectors, base = synthetic_windows(n_windows=25, blobs=3, dim=4, per_window=60,
                                      seed=2, shift_window=20)
    models, series = run_pipeline_local(vectors, length=1.0, t0=0.0, k=3, seed=99)
    assert series.flags == [20]
    ordered = [models[j] for j in sorted(models)]
    emergent = collect_emergent(ordered, series)
    assert len(emergent) == 1
    planted = base[0] + 25.0
    assert np.linalg.norm(np.array(emergent[0].center) - planted) < 0.5


# ------------------------------------------------------------------ scoring

def test_score_at_center_equals_weight():
    clusters = [
        EmergentCluster(center=(0.0, 0.0), variance=2.0, weight=0.7, mix=0.5),
        EmergentCluster(center=(5.0, 5.0), variance=1.0, weight=0.2, mix=0.5),
    ]
    assert emergence_score(np.array([0.0, 0.0]), clusters) == 0.7


def test_score_closed_form_example():
    cluster = EmergentCluster(center=(0.0,), variance=1.0, weight=1.0, mix=1.0)
    x = np.array([math.sqrt(2.0)])
    assert math.isclose(emergence_score(x, [cluster]), math.exp(-1.0), rel_tol=1e-9)


def test_score_matches_independent_evaluation():
    rng = np.random.default_rng(12)
    clusters = [EmergentCluster(center=tuple(rng.uniform(-2, 2, 3)),
                                variance=float(rng.uniform(0.5, 2.0)),
                                weight=float(rng.uniform(0.1, 1.0)),
                                mix=0.5)
                for _ in range(2)]
    for _ in range(50):
        x = rng.uniform(-3, 3, 3)
        expected = max(
            c.weight * math.exp(-(c.mix ** 2)
                                * float(((x - np.array(c.center)) ** 2).sum())
                                / (2.0 * c.variance))
            for c in clusters)
        assert emergence_score(x, clusters) == expected


def test_score_bounds_and_monotonicity():
    cluster = EmergentCluster(center=(0.0, 0.0), variance=1.5, weight=0.8, mix=0.25)
    previous = None
    for r in np.linspace(0.0, 10.0, 40):
        score = emergence_score(np.array([r, 0.0]), [cluster])
        assert 0.0 < score <= cluster.weight
        if previous is not None:
            assert score <= previous
        previous = score


def test_score_requires_emergent_clusters():
    with pytest.raises(ValueError):
        emergence_score(np.array([0.0]), [])


# ----------------------------------------------------------------- file I/O

def test_feature_file_round_trip(tmp_path):
    vectors = [fv(1.25, [0.5, -2.75], entity="host-a"),
               fv(2.5, [1e-9, 3.0], entity="host-b")]
    path = tmp_path / "features.txt"
    write_feature_file(path, vectors)
    back = read_feature_file(path)
    assert [v.entity for v in back] == ["host-a", "host-b"]
    for original, parsed in zip(vectors, back):
        assert parsed.timestamp == original.timestamp
        assert np.array_equal(parsed.values, original.values)


def per_vector_feature_lines(n_windows, blobs, dim, per_window, seed, shift_window,
                             shift_offset=25.0, spread=0.05):
    """The generator and the record format written one vector at a time."""
    base = np.random.default_rng(seed).uniform(-10.0, 10.0, size=(blobs, dim))
    lines = []
    for j in range(n_windows):
        wrng = np.random.default_rng(seed + 1000 + j)
        centers = base.copy()
        if j >= shift_window:
            centers[0] = base[0] + shift_offset
        for i in range(per_window):
            values = centers[i % blobs] + wrng.normal(0.0, spread, size=dim)
            t = j * 1.0 + (i + 0.5) / (per_window + 1)
            parts = ["e%04d" % i, repr(float(t))] + [repr(float(x)) for x in values]
            lines.append(",".join(parts).encode() + b"\n")
    return lines


def test_generated_feature_file_matches_the_per_vector_formula(tmp_path):
    shape = dict(n_windows=7, blobs=3, dim=4, per_window=11, seed=4000, shift_window=5)
    vectors, _ = synthetic_windows(**shape)
    path = tmp_path / "features.txt"
    write_feature_file(path, vectors)
    lines = per_vector_feature_lines(**shape)
    assert path.read_bytes() == b"".join(lines)
    assert read_record_file(path)[1] == RecordIndex.from_sizes(map(len, lines))


def test_parse_feature_record_rejects_short_lines():
    with pytest.raises(ValueError):
        parse_feature_record(b"entity,1.0")


# few distinct fields, so that rows tie on entity and timestamp; a trailing
# NUL is the case fixed-width numpy strings would get wrong
ENTITIES = st.sampled_from(["a", "b", "a\x00", "ab", "é"])
FIELDS = st.sampled_from([-1.5, -0.0, 0.0, 2.25, 1e300, float("inf"), float("-inf")])


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_feature_columns_match_per_record_parse_and_sort(dim, data):
    rows = data.draw(st.lists(st.tuples(ENTITIES, FIELDS, st.lists(
        FIELDS, min_size=dim, max_size=dim)), min_size=1, max_size=25))
    records = [format_feature_record(fv(t, values, entity)) for entity, t, values in rows]
    vectors = [parse_feature_record(r) for r in records]
    entities, timestamps, values = feature_columns(records)
    assert entities.shape == timestamps.shape == (len(records),)
    assert values.shape == (len(records), dim)
    assert entities.tolist() == [v.entity for v in vectors]
    assert timestamps.tolist() == [v.timestamp for v in vectors]
    assert np.array_equal(values, np.array([v.values for v in vectors]))
    key = sorted(range(len(vectors)), key=lambda i: (
        vectors[i].entity, vectors[i].timestamp, tuple(vectors[i].values)))
    assert member_order(entities, timestamps, values).tolist() == key

    other = format_feature_record(fv(0.0, [1.0] * data.draw(st.sampled_from(
        [d for d in (1, 2, 3, 4) if d != dim]))))
    at = data.draw(st.integers(0, len(records)))
    with pytest.raises(ValueError):
        feature_columns(records[:at] + [other] + records[at:])


# -------------------------------------------------------------- distributed

def test_distributed_pipeline_equals_local(make_cluster, tmp_path):
    cluster = make_cluster(2)
    client = cluster.client()
    vectors, _ = synthetic_windows(n_windows=14, blobs=2, dim=3, per_window=30,
                                   seed=6, shift_window=12)
    half = len(vectors) // 2
    names = []
    for i, chunk in enumerate((vectors[:half], vectors[half:])):
        path = tmp_path / ("f%d.txt" % i)
        write_feature_file(path, chunk)
        name = "ang/f%d.txt" % i
        client.upload(path, name)
        names.append(name)
    local_models, local_series = run_pipeline_local(
        vectors, length=1.0, t0=0.0, k=2, seed=5)
    dist_models, dist_series = run_pipeline_distributed(
        client, names, length=1.0, t0=0.0, k=2, seed=5)
    assert sorted(local_models) == sorted(dist_models)
    for j in local_models:
        assert np.array_equal(local_models[j].centers, dist_models[j].centers)
        assert np.array_equal(local_models[j].variances, dist_models[j].variances)
        assert np.array_equal(local_models[j].weights, dist_models[j].weights)
    assert local_series.flags == dist_series.flags
    assert local_series.deltas == dist_series.deltas


def test_pinned_job_ids_register_the_same_file_names(make_cluster, tmp_path):
    vectors, _ = synthetic_windows(n_windows=12, blobs=2, dim=2, per_window=20,
                                   seed=8, shift_window=10)
    path = tmp_path / "f.txt"
    write_feature_file(path, vectors)
    registered = []
    for _ in range(2):
        cluster = make_cluster(3)
        client = cluster.client()
        client.upload(path, "ang/f.txt")
        run_pipeline_distributed(client, ["ang/f.txt"], length=1.0, t0=0.0, k=2,
                                 seed=5, job_id="pinned")
        registered.append({name for node in cluster.nodes.values() for name in node.registry})
    assert registered[0] == registered[1]
    # the clustering job returns its models to the client and stores nothing
    assert {name.split("/")[0] for name in registered[0]} == {"ang", "pinned"}


def test_angle_scenario_accepts_the_local_pipelines_extra_flags(tmp_path):
    # the 10-window 3-sigma rule flags windows 23 and 36 as well on this stream
    metrics, ok = scenarios.scenario_angle_synthetic(tmp_path, n_windows=60, per_window=500,
                                                      shift_window=40)
    flags = [int(f) for f in metrics["flags"].split(",")]
    assert ok and 40 in flags and len(flags) > 1
    assert metrics["flags"] == metrics["local_flags"]


def test_angle_scenario_refuses_a_stream_with_no_shift(tmp_path):
    metrics, ok = scenarios.scenario_angle_synthetic(tmp_path, shift_window=None)
    assert not ok and metrics["flags"] == metrics["local_flags"]
