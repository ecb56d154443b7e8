"""Emergent-behavior detection over windowed feature vectors.

Feature vectors are aggregated into fixed-length temporal windows, each
window is clustered, and the drift between consecutive windows' cluster
centers (sum over one window's centers of the squared distance to the
nearest center in the next window) flags windows whose clusters changed
significantly. Vectors are then scored against the emergent clusters with
a Gaussian-shaped score.

The pipeline also runs distributed: windowing is a shuffle job whose
segment operator tags each record with its window index, read from the
timestamp field alone, and per-window clustering runs as a segment
operator that parses its window once into columns and returns the
window's model to the client in its SPE_RUN reply; the statistics are
computed back on the client.
"""

from __future__ import annotations

import json
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import sphere

log = logging.getLogger(__name__)

DEFAULT_K = 5
DEFAULT_HISTORY = 10
DEFAULT_Z = 3.0
KMEANS_MAX_ITER = 100
KMEANS_REL_TOL = 1e-6
MIN_VARIANCE = 1e-12


@dataclass
class FeatureVector:
    entity: str
    timestamp: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


@dataclass
class Window:
    index: int
    start: float
    length: float
    members: list = field(default_factory=list)


def window_partition(vectors, length: float, t0: float = 0.0) -> list[Window]:
    """Tile time into windows of the given length starting at t0; every
    vector lands in exactly one window, empty windows are kept."""
    if length <= 0:
        raise ValueError("window length must be positive")
    vectors = list(vectors)
    if not vectors:
        return []
    indices = [math.floor((v.timestamp - t0) / length) for v in vectors]
    low, high = min(indices), max(indices)
    windows = [Window(index=j, start=t0 + j * length, length=length)
               for j in range(low, high + 1)]
    for v, j in zip(vectors, indices):
        windows[j - low].members.append(v)
    return windows


# ------------------------------------------------------------------ k-means

@dataclass
class ClusterModel:
    centers: np.ndarray          # (k, d)
    variances: np.ndarray        # (k,) mean squared distance to the center
    weights: np.ndarray          # (k,) member fraction
    mixes: np.ndarray            # (k,) constants summing to 1
    objective_history: list = field(default_factory=list)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.variances = np.asarray(self.variances, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.mixes = np.asarray(self.mixes, dtype=float)
        if len(self.centers) < 1:
            raise ValueError("a cluster model needs at least one center")
        if np.any(self.variances <= 0):
            raise ValueError("cluster variances must be positive")
        if not math.isclose(float(self.mixes.sum()), 1.0, rel_tol=1e-9):
            raise ValueError("mix constants must sum to 1")

    @property
    def k(self) -> int:
        return len(self.centers)

    def to_json(self) -> dict:
        return {"centers": self.centers.tolist(),
                "variances": self.variances.tolist(),
                "weights": self.weights.tolist(),
                "mixes": self.mixes.tolist()}

    @classmethod
    def from_json(cls, blob: dict) -> "ClusterModel":
        return cls(centers=np.array(blob["centers"], dtype=float),
                   variances=np.array(blob["variances"], dtype=float),
                   weights=np.array(blob["weights"], dtype=float),
                   mixes=np.array(blob["mixes"], dtype=float))


def _farthest_point_init(points: np.ndarray, k: int, rng: np.random.Generator):
    first = int(rng.integers(len(points)))
    chosen = [first]
    dist = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].copy()


def kmeans(points: np.ndarray, k: int, seed: int):
    """Seeded Lloyd iteration with farthest-point initialization.

    Returns (centers, assignment, objective_history); the objective (total
    squared distance) never increases between iterations.
    """
    rng = np.random.default_rng(seed)
    centers = _farthest_point_init(points, k, rng)
    history: list[float] = []
    assignment = np.zeros(len(points), dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = np.argmin(d2, axis=1)
        objective = float(d2[np.arange(len(points)), assignment].sum())
        history.append(objective)
        new_centers = centers.copy()
        for i in range(k):
            mask = assignment == i
            if mask.any():
                new_centers[i] = points[mask].mean(axis=0)
            else:
                # relocate an empty cluster to the farthest point
                away = ((points - centers[assignment]) ** 2).sum(axis=1)
                new_centers[i] = points[int(np.argmax(away))]
        moved = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if moved == 0.0:
            break
        if len(history) >= 2 and history[-2] > 0 \
                and (history[-2] - history[-1]) <= KMEANS_REL_TOL * history[-2]:
            break
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assignment = np.argmin(d2, axis=1)
    history.append(float(d2[np.arange(len(points)), assignment].sum()))
    return centers, assignment, history


def cluster_window(window, k: int, seed: int) -> ClusterModel:
    """Cluster one window's vectors; weights are member fractions, variances
    the mean squared distance of members to their center, mixes 1/k."""
    if isinstance(window, Window):
        points = np.array([v.values for v in window.members], dtype=float)
    else:
        points = np.asarray(window, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("clustering needs a non-empty 2d point set")
    if len(points) < k:
        warnings.warn("window has %d members; reducing k from %d"
                      % (len(points), k), stacklevel=2)
        k = len(points)
    centers, assignment, history = kmeans(points, k, seed)
    variances = np.empty(k)
    weights = np.empty(k)
    for i in range(k):
        mask = assignment == i
        weights[i] = mask.mean()
        if mask.any():
            variances[i] = float(((points[mask] - centers[i]) ** 2).sum(axis=1).mean())
        else:
            variances[i] = 0.0
    variances = np.maximum(variances, MIN_VARIANCE)
    mixes = np.full(k, 1.0 / k)
    return ClusterModel(centers=centers, variances=variances, weights=weights,
                        mixes=mixes, objective_history=history)


# ---------------------------------------------------------------- statistics

def _centers_of(model) -> np.ndarray:
    if isinstance(model, ClusterModel):
        return model.centers
    return np.atleast_2d(np.asarray(model, dtype=float))


def cluster_drift(model_a, model_b) -> float:
    """Sum over centers of the first model of the squared distance to the
    nearest center of the second model; 0 when the center sets coincide."""
    a, b = _centers_of(model_a), _centers_of(model_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("drift needs at least one center on each side")
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


@dataclass
class EmergenceSeries:
    deltas: list[float]
    flags: list[int]                       # flagged window indices
    emergent: dict[int, list[int]]         # window index -> emergent center ids


def flag_spikes(deltas, history_len: int = DEFAULT_HISTORY,
                z_threshold: float = DEFAULT_Z) -> list[int]:
    """Positions j whose delta exceeds the trailing history_len deltas' mean
    by z_threshold standard deviations; positions without full history never
    flag."""
    flagged = []
    for j in range(history_len, len(deltas)):
        history = np.array(deltas[j - history_len:j], dtype=float)
        if deltas[j] > float(history.mean()) + z_threshold * float(history.std()):
            flagged.append(j)
    return flagged


def detect_emergent(models: list[ClusterModel], history_len: int = DEFAULT_HISTORY,
                    z_threshold: float = DEFAULT_Z) -> EmergenceSeries:
    """Flag windows whose drift from the previous window exceeds the trailing
    mean by z_threshold standard deviations; within a flagged window, centers
    farther from the prior window than the per-center median distance are the
    emergent ones."""
    deltas = [cluster_drift(models[j], models[j + 1]) for j in range(len(models) - 1)]
    flags: list[int] = []
    emergent: dict[int, list[int]] = {}
    for j in flag_spikes(deltas, history_len, z_threshold):
        flags.append(j + 1)
        emergent[j + 1] = _emergent_centers(models[j], models[j + 1])
    return EmergenceSeries(deltas=deltas, flags=flags, emergent=emergent)


def _emergent_centers(prior: ClusterModel, flagged: ClusterModel) -> list[int]:
    d2 = ((flagged.centers[:, None, :] - prior.centers[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.min(axis=1)
    median = float(np.median(nearest))
    return [i for i in range(len(nearest)) if nearest[i] > median]


@dataclass(frozen=True)
class EmergentCluster:
    center: tuple
    variance: float
    weight: float
    mix: float


def collect_emergent(models: list[ClusterModel], series: EmergenceSeries) -> list[EmergentCluster]:
    clusters = []
    for window_index, center_ids in series.emergent.items():
        model = models[window_index]
        for i in center_ids:
            clusters.append(EmergentCluster(
                center=tuple(model.centers[i]),
                variance=float(model.variances[i]),
                weight=float(model.weights[i]),
                mix=float(model.mixes[i])))
    return clusters


def emergence_score(x, emergent_clusters) -> float:
    """Max over emergent clusters of weight * exp(-mix^2 * ||x-center||^2 /
    (2 * variance))."""
    clusters = list(emergent_clusters)
    if not clusters:
        raise ValueError("no emergent clusters to score against")
    x = np.asarray(x if not isinstance(x, FeatureVector) else x.values, dtype=float)
    best = -math.inf
    for c in clusters:
        d2 = float(((x - np.asarray(c.center)) ** 2).sum())
        score = c.weight * math.exp(-(c.mix ** 2) * d2 / (2.0 * c.variance))
        best = max(best, score)
    return best


# ----------------------------------------------------------------- file I/O

def format_feature_record(v: FeatureVector, delimiter: str = ",") -> bytes:
    parts = [v.entity, repr(float(v.timestamp))]
    parts.extend(map(repr, v.values.tolist()))
    return delimiter.join(parts).encode()


def parse_feature_record(record: bytes, delimiter: str = ",") -> FeatureVector:
    parts = _fields(record, delimiter)
    return FeatureVector(entity=parts[0], timestamp=float(parts[1]),
                         values=np.array([float(p) for p in parts[2:]]))


def feature_columns(records, delimiter: str = ","):
    """The fields of feature records as columns: entities as an (n,) array
    of str, timestamps as an (n,) float array and values as an (n, d) float
    array, each record split once. ValueError unless every record has the
    same number of fields, at least 3. The entities are str objects, not
    fixed-width numpy strings, which drop trailing NULs."""
    rows = [_fields(r, delimiter) for r in records]
    width = len(rows[0]) if rows else 2
    if any(len(row) != width for row in rows):
        raise ValueError("feature records with different numbers of fields")
    columns = list(zip(*rows)) or [(), ()]
    entities = np.array(columns[0], dtype=object)
    timestamps = np.fromiter(map(float, columns[1]), float, len(rows))
    values = np.empty((len(rows), width - 2))
    for j, column in enumerate(columns[2:]):
        values[:, j] = np.fromiter(map(float, column), float, len(rows))
    return entities, timestamps, values


def _fields(record: bytes, delimiter: str, maxsplit: int = -1) -> list[str]:
    parts = record.decode().strip().split(delimiter, maxsplit)
    if len(parts) < 3:
        raise ValueError("feature record needs entity, timestamp, and values")
    return parts


def write_feature_file(path, vectors, delimiter: str = ",") -> None:
    """One vector per line; the companion index addresses each line as a record."""
    from .records import RecordIndex, write_record_file

    lines = [format_feature_record(v, delimiter) + b"\n" for v in vectors]
    write_record_file(path, b"".join(lines), RecordIndex.from_sizes(map(len, lines)))


def read_feature_file(path, delimiter: str = ",") -> list[FeatureVector]:
    from pathlib import Path

    return [parse_feature_record(line.encode(), delimiter)
            for line in Path(path).read_text().splitlines() if line.strip()]


# ------------------------------------------------------------- distributed

def _window_bucket(record: bytes, params: bytes) -> int:
    """The reference rule for a record's window, one record at a time; the
    window-index operator computes the same for a whole segment."""
    p = sphere.decoded_params(params, json.loads)
    v = parse_feature_record(record, p.get("delimiter", ","))
    return int(math.floor((v.timestamp - p["t0"]) / p["length"]))


def _window_segment(records, params: bytes):
    """The segment, each record tagged with its window index. Only the
    timestamp field is parsed; window-cluster parses whole records."""
    p = sphere.decoded_params(params, json.loads)
    delimiter = p.get("delimiter", ",")
    stamps = np.array([float(_fields(r, delimiter, 2)[1]) for r in records], dtype=float)
    windows = np.floor((stamps - p["t0"]) / p["length"])
    if not (np.abs(windows) < 2.0 ** 63).all():  # also false for NaN
        raise ValueError("a record's timestamp gives no int64 window index")
    return records.with_buckets(windows.astype(np.int64))


def member_order(entities, timestamps, values) -> np.ndarray:
    """The stable order of feature columns' rows by (entity, timestamp,
    values), the key run_pipeline_local sorts a window's members by."""
    return np.lexsort((*values.T[::-1], timestamps, entities))


def _cluster_segment(records, params: bytes):
    p = sphere.decoded_params(params, json.loads)
    entities, timestamps, values = feature_columns(records, p.get("delimiter", ","))
    order = member_order(entities, timestamps, values)
    window_index = int(math.floor((timestamps[order[0]] - p["t0"]) / p["length"]))
    model = cluster_window(values[order], p["k"], p["seed"])
    blob = {"window": window_index, "model": model.to_json()}
    return [json.dumps(blob).encode()]


# no job calls it; registered for ssbench/tracing.py until ROADMAP item 4
sphere.register_bucket("window-index", _window_bucket)
sphere.register_operator("window-index", _window_segment, scope="segment")
sphere.register_operator("window-cluster", _cluster_segment, scope="segment")


def run_pipeline_distributed(session, names, length: float, t0: float, k: int,
                             seed: int, destinations=None,
                             history_len: int = DEFAULT_HISTORY,
                             z_threshold: float = DEFAULT_Z,
                             job_id: str | None = None):
    """Window-shuffle then cluster as jobs; drift statistics on the client.
    The clustering job returns each window's model in its SPE_RUN reply
    and stores nothing. A given job_id names the shuffle job, so its
    bucket file names do not vary between runs, and job_id + "-clusters"
    the clustering job.

    Returns (models by window index, EmergenceSeries).
    """
    params = json.dumps({"t0": t0, "length": length, "k": k, "seed": seed}).encode()
    destinations = tuple(destinations or session.members())
    shuffled, _ = session.run_job(
        names, "window-index", params=params,
        output=sphere.OutputSpec(mode=sphere.OutputMode.SHUFFLE, destinations=destinations),
        job_id=job_id)
    _, report = session.run_job(
        shuffled, "window-cluster", params=params,
        output=sphere.OutputSpec(sphere.OutputMode.CLIENT),
        limits=sphere.WHOLE_FILE_LIMITS,
        job_id=(job_id + "-clusters") if job_id else None)
    models: dict[int, ClusterModel] = {}
    for record in report.records:
        blob = json.loads(record.decode())
        models[blob["window"]] = ClusterModel.from_json(blob["model"])
    ordered = [models[j] for j in sorted(models)]
    series = detect_emergent(ordered, history_len=history_len, z_threshold=z_threshold)
    return models, series


def run_pipeline_local(vectors, length: float, t0: float, k: int, seed: int,
                       history_len: int = DEFAULT_HISTORY,
                       z_threshold: float = DEFAULT_Z):
    """Single-process twin of the distributed pipeline (same member ordering,
    same seeding), used to validate it."""
    windows = window_partition(vectors, length, t0)
    models: dict[int, ClusterModel] = {}
    for w in windows:
        if not w.members:
            continue
        members = sorted(w.members, key=lambda v: (v.entity, v.timestamp, tuple(v.values)))
        points = np.array([v.values for v in members])
        models[w.index] = cluster_window(points, k, seed)
    ordered = [models[j] for j in sorted(models)]
    series = detect_emergent(ordered, history_len=history_len, z_threshold=z_threshold)
    return models, series


# ------------------------------------------------------------------ synth

def synthetic_windows(n_windows: int, blobs: int, dim: int, per_window: int,
                      seed: int, shift_window: int | None = None,
                      shift_offset: float = 25.0, spread: float = 0.05):
    """Stable Gaussian blobs per window; from shift_window on, the first blob
    relocates by shift_offset, planting a cluster at a new location.

    Returns (vectors, base blob centers); the planted cluster sits at
    base[0] + shift_offset.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(-10.0, 10.0, size=(blobs, dim))
    vectors: list[FeatureVector] = []
    member_center = np.arange(per_window) % len(base)
    for j in range(n_windows):
        wrng = np.random.default_rng(seed + 1000 + j)
        centers = base
        if shift_window is not None and j >= shift_window:
            centers = base.copy()
            centers[0] = base[0] + shift_offset
        # one draw per window takes the same normals, in the same order, as
        # one draw per vector
        values = centers[member_center] + wrng.normal(0.0, spread, size=(per_window, dim))
        for i in range(per_window):
            t = j * 1.0 + (i + 0.5) / (per_window + 1)
            vectors.append(FeatureVector(entity="e%04d" % i, timestamp=t,
                                         values=values[i]))
    return vectors, base
