"""The four benchmark workloads.

Each round of a workload builds a fresh in-process cluster, generates its
inputs from the seed, runs its timed phases as a closed loop (one client,
one operation at a time) and then checks every output with checks.py.
Rounds of one run are identical: same inputs, same pinned job ids.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from sectorsphere import angle, benchmarks, scenarios
from sectorsphere.cluster import quick_cluster
from sectorsphere.routing import RingView

TERASORT_NODES = 4
TERASORT_RECORDS_PER_NODE = 20_000
WAN_RECORDS_PER_NODE = 8_000

ANGLE_NODES = 3
ANGLE_WINDOWS = 60
ANGLE_PER_WINDOW = 500
ANGLE_BLOBS = 3
ANGLE_DIM = 4
ANGLE_SHIFT_WINDOW = 40
ANGLE_SHIFT_OFFSET = 25.0
ANGLE_CLUSTER_SEED = 99
ANGLE_SEED_SPACING = 2000

ARCHIVE_NODES = 4
ARCHIVE_TARGET = 3
ARCHIVE_SMALL_FILES = 160
ARCHIVE_LARGE_FILES = 2
ARCHIVE_MAX_CYCLES = 5
_INDEX_ENTRY = struct.Struct("<QQ")  # the on-disk .idx format: offset, size


@dataclass
class Round:
    phases: dict = field(default_factory=dict)      # phase name -> wall seconds
    cpu: dict = field(default_factory=dict)         # phase name -> process CPU seconds
    problems: list = field(default_factory=list)

    @contextmanager
    def phase(self, name: str):
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.cpu[name] = time.process_time() - cpu
        self.phases[name] = time.perf_counter() - wall


def owned_names(addresses, base: str) -> list[str]:
    """One name per node, salted so that node owns it on the ring."""
    ring = RingView.from_addresses(addresses)
    return [scenarios.name_owned_by(ring, base % i, a)
            for i, a in enumerate(sorted(addresses))]


class Terasort:
    """terasort then terasplit of teragen records, one input file per node."""

    def __init__(self, seed: int, wan: bool):
        self.seed = seed
        self.wan = wan
        if wan:
            self.addresses = list(scenarios.WAN_SITES)
            self.per_node = WAN_RECORDS_PER_NODE
        else:
            self.addresses = ["node-%d" % i for i in range(TERASORT_NODES)]
            self.per_node = TERASORT_RECORDS_PER_NODE
        self.names = owned_names(self.addresses, "tera/part-%02d.dat")
        # per node file: upload, then terasort, terasplit and one full read
        self.operations = len(self.addresses) + 3
        self._reference = None  # (digest, sorted records, best split) of the inputs

    def run(self, work: Path, clock) -> Round:
        r = Round()
        with r.phase("setup_s"):
            cluster = quick_cluster(work / "cluster", len(self.addresses), replica_target=1,
                                    seed=self.seed, addresses=self.addresses, clock=clock,
                                    profile=scenarios.wan_profile() if self.wan else None)
            paths = [benchmarks.teragen(self.per_node, self.seed * 100 + i,
                                        work / "gen" / ("part-%02d.dat" % i))
                     for i in range(len(self.addresses))]
        with cluster:
            client = cluster.client()
            with r.phase("ingest_s"):
                for path, name in zip(paths, self.names):
                    client.upload(path, name)
            with r.phase("job_s"):
                out, _ = benchmarks.terasort(client, self.names, job_id="terasort")
            with r.phase("split_s"):
                split = benchmarks.terasplit(client, out)
            with r.phase("readback_s"):
                output = list(client.iter_records(out.names))
        inputs, best_split = self._expected(paths)
        r.problems += checks.check_sorted_output(output, inputs)
        r.problems += checks.check_split(split, best_split)
        return r

    def _expected(self, paths):
        """The reference answers, recomputed only when the generated inputs
        differ from the previous round's."""
        digest = hashlib.sha1(b"".join(p.read_bytes() for p in paths)).digest()
        if self._reference is None or self._reference[0] != digest:
            inputs = sorted(rec for p in paths for rec in checks.read_fixed_records(p))
            self._reference = (digest, inputs, checks.exhaustive_split(inputs))
        return self._reference[1:]


class Angle:
    """The distributed emergence pipeline over windows with one planted shift."""

    def __init__(self, seed: int):
        self.seed = seed
        self.names = ["angle/features-%02d.txt" % i for i in range(ANGLE_NODES)]
        self.operations = len(self.names) + 1  # uploads, then the pipeline

    def run(self, work: Path, clock) -> Round:
        r = Round()
        with r.phase("setup_s"):
            cluster = quick_cluster(work / "cluster", ANGLE_NODES, replica_target=1,
                                    seed=self.seed, clock=clock)
            # the generator seeds window j with seed + 1000 + j, so nearby seeds
            # would share most window noise; spacing them keeps runs independent
            vectors, base = angle.synthetic_windows(
                n_windows=ANGLE_WINDOWS, blobs=ANGLE_BLOBS, dim=ANGLE_DIM,
                per_window=ANGLE_PER_WINDOW, seed=self.seed * ANGLE_SEED_SPACING,
                shift_window=ANGLE_SHIFT_WINDOW, shift_offset=ANGLE_SHIFT_OFFSET)
            share = -(-len(vectors) // len(self.names))
            paths = []
            for i in range(len(self.names)):
                path = work / "gen" / ("features-%02d.txt" % i)
                path.parent.mkdir(parents=True, exist_ok=True)
                angle.write_feature_file(path, vectors[i * share:(i + 1) * share])
                paths.append(path)
        with cluster:
            client = cluster.client()
            with r.phase("ingest_s"):
                for path, name in zip(paths, self.names):
                    client.upload(path, name)
            with r.phase("job_s"):
                models, series = angle.run_pipeline_distributed(
                    client, self.names, length=1.0, t0=0.0, k=ANGLE_BLOBS,
                    seed=ANGLE_CLUSTER_SEED)
        r.problems += checks.check_angle(
            models, series, np.asarray(base, dtype=float), ANGLE_SHIFT_WINDOW,
            ANGLE_SHIFT_OFFSET, ANGLE_WINDOWS, angle.DEFAULT_HISTORY, angle.DEFAULT_Z)
        return r


def archive_files(seed: int) -> dict:
    """Many small files, every fourth one a record file with an index, plus
    a few files larger than one 8 MiB transfer chunk."""
    rng = random.Random(seed)
    files = {}
    for i in range(ARCHIVE_SMALL_FILES):
        if i % 4 == 0:
            sizes = [rng.randint(16, 512) for _ in range(rng.randint(8, 200))]
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            index = b"".join(_INDEX_ENTRY.pack(int(o), s) for o, s in zip(offsets, sizes))
            files["archive/rec-%04d.dat" % i] = (rng.randbytes(sum(sizes)), index)
        else:
            files["archive/blob-%04d.bin" % i] = (rng.randbytes(rng.randint(4096, 131072)), None)
    for i in range(ARCHIVE_LARGE_FILES):
        size = 8 * 1024 * 1024 + rng.randint(1, 2 * 1024 * 1024)
        files["archive/large-%02d.bin" % i] = (rng.randbytes(size), None)
    return files


class Archive:
    """Sector as storage only: upload, replicate to target, download."""

    def __init__(self, seed: int):
        self.seed = seed
        self.addresses = ["node-%d" % i for i in range(ARCHIVE_NODES)]
        self.names = list(archive_files(seed))
        ring = RingView.from_addresses(self.addresses)
        self.owners = {name: ring.owner(name).address for name in self.names}
        self.operations = 2 * len(self.names) + 1  # uploads, replication, downloads

    def run(self, work: Path, clock) -> Round:
        r = Round()
        with r.phase("setup_s"):
            cluster = quick_cluster(work / "cluster", ARCHIVE_NODES, replica_target=ARCHIVE_TARGET,
                                    seed=self.seed, addresses=self.addresses, clock=clock)
            files = archive_files(self.seed)
            paths = {}
            for name, (data, index) in files.items():
                path = work / "gen" / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
                if index is not None:
                    path.with_name(path.name + ".idx").write_bytes(index)
                paths[name] = path
        with cluster:
            client = cluster.client()
            with r.phase("ingest_s"):
                for name, path in paths.items():
                    client.upload(path, name)
            with r.phase("replicate_s"):
                for _ in range(ARCHIVE_MAX_CYCLES):
                    cluster.replication_cycle()
                    if all(c >= ARCHIVE_TARGET
                           for c in cluster.location_counts(files).values()):
                        break
            with r.phase("readback_s"):
                for name in files:
                    client.download(name, work / "download" / name)
            # read straight from the owners' registries: no messages, no lookups
            located = {name: list(cluster.nodes[self.owners[name]].registry.get(name, ()))
                       for name in files}
        downloaded = {}
        copies = {}
        for name, (data, _) in files.items():
            path = work / "download" / name
            idx = path.with_name(path.name + ".idx")
            downloaded[name] = (path.read_bytes(), idx.read_bytes() if idx.exists() else None)
            stored = [work / "cluster" / a / name for a in self.addresses]
            copies[name] = [a for a, p in zip(self.addresses, stored)
                            if p.is_file() and p.read_bytes() == data]
        r.problems += checks.check_archive(files, downloaded, copies, located, ARCHIVE_TARGET)
        return r


WORKLOADS = {
    "terasort": lambda seed: Terasort(seed, wan=False),
    "terasort-wan": lambda seed: Terasort(seed, wan=True),
    "angle": Angle,
    "archive": Archive,
}
