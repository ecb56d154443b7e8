"""End-to-end experiment scenarios.

Each scenario builds an in-process cluster, runs a workload, validates
the result, and returns (metrics, ok). Metrics are written as key=value
lines; validation results are deterministic under a fixed seed, timings
are not.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
from scipy import stats

from . import angle, benchmarks
from .cluster import quick_cluster
from .routing import name_owned_by
from .transport import LinkProfile

SCENARIO_NAMES = ("terasort-local", "terasort-wan", "angle-synthetic",
                  "replication-uniformity")


def write_metrics(path, metrics: dict) -> None:
    lines = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, (bool, np.bool_)):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = "%.6g" % value
        lines.append("%s=%s" % (key, value))
    Path(path).write_text("\n".join(lines) + "\n")


def run_scenario(name: str, workdir, out_path=None, **kwargs):
    if name == "terasort-local":
        metrics, ok = scenario_terasort_local(workdir, **kwargs)
    elif name == "terasort-wan":
        metrics, ok = scenario_terasort_wan(workdir, **kwargs)
    elif name == "angle-synthetic":
        metrics, ok = scenario_angle_synthetic(workdir, **kwargs)
    elif name == "replication-uniformity":
        metrics, ok = scenario_replication_uniformity(workdir, **kwargs)
    else:
        raise ValueError("unknown scenario %r (have: %s)"
                         % (name, ", ".join(SCENARIO_NAMES)))
    ok = bool(ok)
    metrics["scenario"] = name
    metrics["ok"] = ok
    if out_path:
        write_metrics(out_path, metrics)
    return metrics, ok


# ----------------------------------------------------------------- terasort

def _generate_and_upload(cluster, client, workdir, records_per_node: int, seed: int):
    """One teragen file per node, placed so each node owns its own file."""
    names = []
    for i, address in enumerate(sorted(cluster.nodes)):
        path = benchmarks.teragen(records_per_node, seed + i,
                                  Path(workdir) / ("gen/part-%02d.dat" % i))
        name = name_owned_by(cluster.ring, "tera/part-%02d.dat" % i, address)
        client.upload(path, name)
        names.append(name)
    return names


def _validate_sorted_output(client, names, out_stream):
    sorted_ok = True

    def checked(records):
        nonlocal sorted_ok
        previous = b""
        for record in records:
            key = record[:benchmarks.KEY_SIZE]
            sorted_ok = sorted_ok and key >= previous
            previous = key
            yield record

    out = benchmarks.multiset_checksum(checked(client.iter_records(out_stream.names)))
    return sorted_ok, out == benchmarks.multiset_checksum(client.iter_records(names)), out[0]


def scenario_terasort_local(workdir, records_total: int = 1_000_000,
                            nodes: int = 4, seed: int = 31):
    workdir = Path(workdir)
    per_node = records_total // nodes
    metrics: dict = {"records": per_node * nodes, "nodes": nodes}
    with quick_cluster(workdir / "cluster", nodes, replica_target=1, seed=seed) as cluster:
        client = cluster.client()
        t = time.monotonic()
        names = _generate_and_upload(cluster, client, workdir, per_node, seed)
        metrics["teragen_upload_s"] = time.monotonic() - t

        t = time.monotonic()
        out_stream, _ = benchmarks.terasort(client, names)
        metrics["terasort_s"] = time.monotonic() - t

        t = time.monotonic()
        split = benchmarks.terasplit(client, out_stream)
        metrics["terasplit_s"] = time.monotonic() - t
        metrics["split_gain"] = split.gain

        t = time.monotonic()
        sorted_ok, multiset_ok, count = _validate_sorted_output(client, names, out_stream)
        metrics["validate_s"] = time.monotonic() - t
        metrics["sorted"] = sorted_ok
        metrics["multiset_match"] = multiset_ok
        metrics["output_records"] = count
        metrics["total_s"] = (metrics["teragen_upload_s"] + metrics["terasort_s"]
                              + metrics["terasplit_s"])
    ok = sorted_ok and multiset_ok and count == metrics["records"]
    return metrics, ok


WAN_SITES = {
    "chi-1": "chicago", "chi-2": "chicago",
    "pas-1": "pasadena", "pas-2": "pasadena",
    "grn-1": "greenbelt", "grn-2": "greenbelt",
}
WAN_RTT_MS = {("chicago", "greenbelt"): 16.0,
              ("chicago", "pasadena"): 55.0,
              ("greenbelt", "pasadena"): 71.0}


def wan_profile() -> LinkProfile:
    """Six nodes at three sites, and client-0 in Chicago, with the measured
    inter-site round trips."""
    profile = LinkProfile()
    places = {**WAN_SITES, "client-0": "chicago"}
    for a, b in itertools.combinations(places, 2):
        sa, sb = places[a], places[b]
        rtt = 0.0 if sa == sb else WAN_RTT_MS[tuple(sorted((sa, sb)))]
        profile.set_rtt(a, b, rtt)
    return profile


def _run_wan_sort(workdir, records_per_node: int, seed: int, profile):
    with quick_cluster(workdir, 6, replica_target=1, seed=seed,
                       addresses=list(WAN_SITES), profile=profile) as cluster:
        client = cluster.client()
        names = _generate_and_upload(cluster, client, workdir, records_per_node, seed)
        t = time.monotonic()
        out_stream, _ = benchmarks.terasort(client, names)
        elapsed = time.monotonic() - t
        sorted_ok, multiset_ok, count = _validate_sorted_output(client, names, out_stream)
    return elapsed, sorted_ok and multiset_ok and count == 6 * records_per_node


def scenario_terasort_wan(workdir, records_per_node: int = 100_000, seed: int = 17):
    """Same sort with and without the wide-area rtt profile; the injected
    latency must cost less than 2.5x."""
    workdir = Path(workdir)
    wan_s, wan_ok = _run_wan_sort(workdir / "wan", records_per_node, seed,
                                  wan_profile())
    base_s, base_ok = _run_wan_sort(workdir / "base", records_per_node, seed, None)
    ratio = wan_s / base_s if base_s > 0 else float("inf")
    metrics = {"records": records_per_node * 6, "wan_s": wan_s,
               "baseline_s": base_s, "ratio": ratio,
               "wan_valid": wan_ok, "baseline_valid": base_ok}
    return metrics, wan_ok and base_ok and ratio < 2.5


# -------------------------------------------------------------------- angle

def scenario_angle_synthetic(workdir, seed: int = 1, nodes: int = 3,
                             n_windows: int = 25, blobs: int = 3, dim: int = 4,
                             per_window: int = 60, shift_window: int = 20,
                             k: int = 3, cluster_seed: int = 99):
    """Plant a cluster relocation in the 21st window (index 20) of an
    otherwise stable synthetic stream, or none with shift_window=None; the
    distributed pipeline must flag the windows that run_pipeline_local flags
    on the same vectors, the planted window among them, and mark the planted
    cluster emergent."""
    workdir = Path(workdir)
    vectors, base = angle.synthetic_windows(
        n_windows=n_windows, blobs=blobs, dim=dim, per_window=per_window,
        seed=seed, shift_window=shift_window)
    planted = base[0] + 25.0
    with quick_cluster(workdir / "cluster", nodes, replica_target=1, seed=seed) as cluster:
        client = cluster.client()
        third = len(vectors) // nodes or len(vectors)
        names = []
        for i in range(0, len(vectors), third):
            path = workdir / ("features-%02d.txt" % (i // third))
            angle.write_feature_file(path, vectors[i:i + third])
            name = "angle/features-%02d.txt" % (i // third)
            client.upload(path, name)
            names.append(name)
        t = time.monotonic()
        models, series = angle.run_pipeline_distributed(
            client, names, length=1.0, t0=0.0, k=k, seed=cluster_seed)
        elapsed = time.monotonic() - t
    _, local = angle.run_pipeline_local(vectors, length=1.0, t0=0.0, k=k, seed=cluster_seed)
    ordered = [models[j] for j in sorted(models)]
    emergent = angle.collect_emergent(ordered, series)
    nearest = min((float(np.linalg.norm(np.array(c.center) - planted))
                   for c in emergent), default=float("inf"))
    metrics = {
        "windows": len(models), "flags": ",".join(str(f) for f in series.flags),
        "local_flags": ",".join(str(f) for f in local.flags),
        "expected_flag": shift_window, "emergent_clusters": len(emergent),
        "planted_center_distance": nearest, "pipeline_s": elapsed,
        "drift_at_shift": series.deltas[shift_window - 1] if shift_window else None,
    }
    ok = (series.flags == local.flags and shift_window in series.flags
          and len(emergent) >= 1 and nearest < 0.5)
    return metrics, ok


# -------------------------------------------------------------- replication

def scenario_replication_uniformity(workdir, files: int = 100, nodes: int = 8,
                                    target: int = 3, cycles: int = 3,
                                    seed: int = 5):
    """Files start at one replica; after accelerated daily cycles every file
    must sit at exactly the target count, and placement frequencies must be
    uniform by a chi-square test."""
    workdir = Path(workdir)
    with quick_cluster(workdir / "cluster", nodes, replica_target=target,
                       seed=seed) as cluster:
        client = cluster.client()
        names = []
        payload = bytes(range(256)) * 4
        for i in range(files):
            name = "repl/file-%04d.dat" % i
            client.upload(payload, name)
            names.append(name)
        initial_owner = {name: cluster.ring.owner(name).address for name in names}

        placements: list[str] = []
        cycles_to_target = None
        for cycle in range(1, cycles + 1):
            actions = cluster.replication_cycle()
            placements.extend(a["dest"] for a in actions if "dest" in a)
            counts = cluster.location_counts(names)
            if all(c == target for c in counts.values()):
                cycles_to_target = cycle
                break
        counts = cluster.location_counts(names)
        reached = all(c == target for c in counts.values())
        never_exceeded = all(c <= target for c in counts.values())

        addresses = sorted(cluster.nodes)
        observed = np.array([sum(1 for p in placements if p == a) for a in addresses],
                            dtype=float)
        expected = np.zeros(len(addresses))
        per_file = target - 1
        for name in names:
            eligible = [a for a in addresses if a != initial_owner[name]]
            for a in eligible:
                expected[addresses.index(a)] += per_file / len(eligible)
        chi, p_value = stats.chisquare(observed, f_exp=expected)
    metrics = {
        "files": files, "nodes": nodes, "target": target,
        "placements": len(placements),
        "cycles_to_target": cycles_to_target if cycles_to_target else -1,
        "reached_target": reached, "never_exceeded": never_exceeded,
        "chi_square": float(chi), "p_value": float(p_value),
    }
    ok = (reached and never_exceeded and cycles_to_target is not None
          and p_value > 0.01)
    return metrics, ok
