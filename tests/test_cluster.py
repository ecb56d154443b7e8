import random
import threading

import pytest

from sectorsphere.cluster import NodeSpec
from sectorsphere.errors import ConfigError
from sectorsphere.records import RecordIndex
from sectorsphere.scheduler import validate_schedule
from sectorsphere.sphere import SegmentLimits, register_operator


def seed_files(client, count, rng, size=2000):
    names = []
    for i in range(count):
        name = "grow/f-%03d.dat" % i
        client.upload(rng.randbytes(size), name, RecordIndex.uniform(size // 100, 100))
        names.append(name)
    return names


def test_join_transfers_ownership_and_lookups_survive(make_cluster, tmp_path):
    cluster = make_cluster(3, replica_target=1)
    client = cluster.client()
    rng = random.Random(64)
    names = seed_files(client, 30, rng)
    before = {name: cluster.ring.owner(name).address for name in names}

    cluster.add_node(NodeSpec(name="late", address="late-node",
                              data_dir=str(tmp_path / "late"), acl=frozenset()))
    moved = [n for n in names if cluster.ring.owner(n).address == "late-node"]
    assert any(cluster.ring.owner(n).address != before[n] for n in names) or moved == []
    for name in names:
        client.forget(name)
        locations = client.locate(name)  # re-registration kept every name findable
        assert locations
    # names the newcomer now owns are answered by it
    for name in moved:
        assert cluster.nodes["late-node"].lookup(name)[0]


def test_replication_heals_after_node_loss(make_cluster):
    cluster = make_cluster(5, replica_target=3)
    client = cluster.client(entry="node-0")
    rng = random.Random(65)
    names = seed_files(client, 10, rng)
    cluster.replication_cycle()
    counts = cluster.location_counts(names)
    assert all(c == 3 for c in counts.values())

    victim = next(a for a in sorted(cluster.nodes)
                  if a != "node-0" and cluster.nodes[a].files)
    cluster.kill(victim)
    # survivors re-registered; the next cycle restores the target
    cluster.replication_cycle()
    counts = cluster.location_counts(names)
    assert all(c == 3 for c in counts.values())
    for name in names:
        client.forget(name)
        assert victim not in client.locate(name)


def test_live_job_schedule_log_passes_validator(make_cluster):
    cluster = make_cluster(3, replica_target=2)
    client = cluster.client()
    rng = random.Random(66)
    for i in range(3):
        client.upload(rng.randbytes(4000), "live/f%d.dat" % i,
                      RecordIndex.uniform(40, 100))
    cluster.replication_cycle()
    for i in range(3):
        client.forget("live/f%d.dat" % i)
    out, report = client.run_job(["live/f0.dat", "live/f1.dat", "live/f2.dat"],
                                 "identity", limits=SegmentLimits(1000, 1500))
    assert report.ok
    from sectorsphere.scheduler import SpeHandle
    spes = [SpeHandle(node) for node in cluster.nodes]
    assert validate_schedule(report.events, spes) == []


def test_spe_slots_run_multiple_segments_per_node(make_cluster):
    cluster = make_cluster(1)
    client = cluster.client()
    rng = random.Random(67)
    client.upload(rng.randbytes(8000), "slots/in.dat", RecordIndex.uniform(80, 100))
    # each of the 8 segments waits for another to reach the barrier, so the
    # job completes only if the node runs its two SPEs' segments at once
    barrier = threading.Barrier(2, timeout=5)

    def meet(records, params):
        barrier.wait()
        return records

    register_operator("test-meet-in-pairs", meet, scope="segment")
    out, report = client.run_job(["slots/in.dat"], "test-meet-in-pairs",
                                 limits=SegmentLimits(1000, 1000),
                                 spe_per_node=2)
    assert report.ok and len(report.segments) == 8
    slots_used = {(ev.spe_node, ev.spe_slot) for ev in report.events
                  if ev.kind == "assign"}
    assert len(slots_used) == 2  # both per-node workers took segments
    # busy time counts the work, not waiting for the node to take a segment
    assert sum(report.node_seconds.values()) <= 2 * report.elapsed


def test_kill_unknown_node_is_config_error(make_cluster):
    cluster = make_cluster(2)
    with pytest.raises(ConfigError):
        cluster.kill("nobody")


def test_cli_terasplit_unsorted_input_exits_cleanly(tmp_path, capsys):
    from sectorsphere import cli
    from sectorsphere.benchmarks import RECORD_SIZE
    from sectorsphere.records import write_record_file

    records = [bytes([9 - i]) * RECORD_SIZE for i in range(5)]  # descending keys
    write_record_file(tmp_path / "bad.dat", b"".join(records),
                      RecordIndex.uniform(5, RECORD_SIZE))
    code = cli.main(["terasplit", "--in", str(tmp_path / "bad.dat")])
    assert code == cli.EXIT_CONFIG
    assert "not sorted" in capsys.readouterr().err
