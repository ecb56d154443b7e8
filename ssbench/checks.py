"""Output checks computed outside the program under test.

Every check takes what the program returned and what the benchmark
generated, recomputes the expected answer on its own (plain Python or
numpy, never a sectorsphere function) and returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RECORD_SIZE = 100
KEY_SIZE = 10


# ------------------------------------------------------------------ terasort

def read_fixed_records(path, size: int = RECORD_SIZE) -> list[bytes]:
    """Split a generated data file into fixed-size records, ignoring any index."""
    data = Path(path).read_bytes()
    if len(data) % size:
        raise ValueError("%s is %d bytes, not a multiple of %d" % (path, len(data), size))
    return [data[i:i + size] for i in range(0, len(data), size)]


def check_sorted_output(output: list[bytes], inputs: list[bytes]) -> list[str]:
    """Output keys never decrease, and the output multiset equals the inputs."""
    problems = []
    keys = [r[:KEY_SIZE] for r in output]
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            problems.append("output record %d has a smaller key than record %d" % (i, i - 1))
            break
    if len(output) != len(inputs):
        problems.append("output has %d records, input has %d" % (len(output), len(inputs)))
    elif sorted(output) != sorted(inputs):
        problems.append("output records differ from the input records as a multiset")
    return problems


def _entropy(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    n = c0 + c1
    h = np.zeros(len(n))
    for c in (c0, c1):
        p = np.divide(c, n, out=np.zeros(len(n)), where=n > 0)
        h -= np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return h


def exhaustive_split(records: list[bytes]) -> dict:
    """Best single key threshold of the records by information gain, found
    by scoring every cut between adjacent distinct keys of the sorted
    (key, label) pairs. A record's label is the parity of byte KEY_SIZE.

    Returns the best gain and every cut within rounding of it, each as
    (threshold, left counts, right counts); ties go to the smaller key.
    """
    pairs = sorted((r[:KEY_SIZE], r[KEY_SIZE] & 1) for r in records)
    n = len(pairs)
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    total1 = int(labels.sum())
    total0 = n - total1
    keys = np.frombuffer(b"".join(k for k, _ in pairs), dtype=np.uint8).reshape(n, KEY_SIZE)
    cuts = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1))  # left side is [0, cut]
    if total0 == 0 or total1 == 0 or len(cuts) == 0:
        return {"gain": 0.0, "best": [(None, (0, 0), (total0, total1))]}
    ones = np.cumsum(labels)
    left1 = ones[cuts]
    left_n = cuts + 1
    left0 = left_n - left1
    right0, right1 = total0 - left0, total1 - left1
    parent = _entropy(np.array([total0]), np.array([total1]))[0]
    gain = (parent - left_n / n * _entropy(left0, left1)
            - (n - left_n) / n * _entropy(right0, right1))
    best = float(gain.max())
    best_cuts = []
    for j in np.flatnonzero(gain >= best - 1e-12):
        i = int(cuts[j])
        low = int.from_bytes(pairs[i][0], "big")
        high = int.from_bytes(pairs[i + 1][0], "big")
        threshold = ((low + high) // 2).to_bytes(KEY_SIZE, "big")
        best_cuts.append((threshold, (int(left0[j]), int(left1[j])),
                          (int(right0[j]), int(right1[j]))))
    return {"gain": max(best, 0.0), "best": best_cuts}


def check_split(result, expected: dict) -> list[str]:
    """The program's SplitResult is one of the exhaustive scan's best cuts."""
    got = (result.threshold, tuple(result.left_counts), tuple(result.right_counts))
    problems = []
    if abs(result.gain - expected["gain"]) > 1e-9:
        problems.append("split gain %.12f, exhaustive scan gives %.12f"
                        % (result.gain, expected["gain"]))
    if got not in expected["best"]:
        problems.append("split %s/%s/%s is not a best cut of the exhaustive scan (first: %s)"
                        % (got[0].hex() if got[0] else None, got[1], got[2],
                           expected["best"][0]))
    return problems


# --------------------------------------------------------------------- angle

def drifts(centers: list[np.ndarray]) -> np.ndarray:
    """Drift between consecutive windows: over each center of window j, the
    squared distance to the nearest center of window j+1, summed."""
    out = []
    for a, b in zip(centers, centers[1:]):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        out.append(d2.min(axis=1).sum())
    return np.array(out)


def check_angle(models: dict, series, base: np.ndarray, shift_window: int,
                shift_offset: float, n_windows: int, history: int, z: float,
                tolerance: float = 0.25) -> list[str]:
    """Check the distributed pipeline against the generator's ground truth.

    base holds the generator's blob centers; from shift_window on, blob 0
    sits at base[0] + shift_offset.
    """
    if sorted(models) != list(range(n_windows)):
        return ["pipeline returned windows %s, expected 0..%d" % (sorted(models), n_windows - 1)]
    problems = []
    centers = [np.asarray(models[j].centers, dtype=float) for j in range(n_windows)]
    planted = base[0] + shift_offset
    for j, c in enumerate(centers):
        truth = base.copy()
        if j >= shift_window:
            truth[0] = planted
        dist = np.sqrt(((c[:, None, :] - truth[None, :, :]) ** 2).sum(axis=2))
        near = dist < tolerance
        if len(c) != len(truth) or not (near.sum(axis=0) == 1).all() \
                or not (near.sum(axis=1) == 1).all():
            problems.append("window %d: centers do not match the %d blobs one to one"
                            % (j, len(truth)))
    deltas = drifts(centers)
    if len(series.deltas) != len(deltas) or not np.allclose(
            series.deltas, deltas, rtol=1e-9, atol=1e-12):
        problems.append("drift series differs from the drift of the returned centers")
    if shift_window not in series.flags:
        problems.append("planted window %d not flagged (flags %s)" % (shift_window, series.flags))
    else:
        emergent = series.emergent.get(shift_window, [])
        if not any(np.linalg.norm(centers[shift_window][i] - planted) < tolerance
                   for i in emergent):
            problems.append("no emergent center of window %d near the planted center"
                            % shift_window)
    for flag in series.flags:
        p = flag - 1
        past = np.asarray(series.deltas[max(0, p - history):p], dtype=float)
        if len(past) < history or not series.deltas[p] > past.mean() + z * past.std():
            problems.append("window %d is flagged but fails the %g-sigma rule" % (flag, z))
    return problems


# ------------------------------------------------------------------- archive

def check_archive(expected: dict, downloaded: dict, copies: dict, located: dict,
                  target: int) -> list[str]:
    """Downloads are byte-equal to the generated files, and every file has
    exactly `target` distinct holders, both on disk and in the registry.

    expected and downloaded map a name to (data, index bytes or None);
    copies maps a name to the nodes whose data directory holds a
    byte-equal copy; located maps it to the holders the cluster reports.
    """
    problems = []
    for name, (data, index) in expected.items():
        got = downloaded.get(name)
        if got is None:
            problems.append("%s was not downloaded" % name)
        elif got[0] != data:
            problems.append("download of %s differs from the generated bytes" % name)
        elif got[1] != index:
            problems.append("download of %s has a different index" % name)
        holders = copies.get(name, [])
        if len(set(holders)) != target:
            problems.append("%s has %d byte-equal copies on disk, expected %d"
                            % (name, len(set(holders)), target))
        elif sorted(set(located.get(name, []))) != sorted(set(holders)):
            problems.append("%s: registry lists %s, disk holds %s"
                            % (name, sorted(located.get(name, [])), sorted(holders)))
    return problems
