import random

import pytest

from sectorsphere.errors import NotFoundError, SectorError, TransportError
from sectorsphere.records import RecordIndex
from sectorsphere.routing import name_owned_by
from sectorsphere.sphere import OutputMode, OutputSpec
from sectorsphere.transport import LinkProfile
from sectorsphere.wire import MessageKind


def test_upload_then_locate_single_location(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    client.upload(b"payload", "a.bin")
    assert len(client.locate("a.bin")) == 1


def test_locate_unknown_not_found(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    with pytest.raises(NotFoundError):
        client.locate("ghost.bin")


def test_locate_sorted_by_rtt(make_cluster, tmp_path):
    from sectorsphere.cluster import quick_cluster

    profile = LinkProfile({("client-0", "node-0"): 55.0,
                           ("client-0", "node-1"): 16.0,
                           ("node-0", "node-1"): 30.0})
    with quick_cluster(tmp_path / "rtt", 2, replica_target=2,
                       profile=profile) as cluster:
        client = cluster.client()
        client.upload(b"data", "near.bin", RecordIndex([(0, 4)]))
        cluster.replication_cycle()
        client.forget("near.bin")
        locations = client.locate("near.bin")
        assert set(locations) == {"node-0", "node-1"}
        assert locations[0] == "node-1"  # 16ms beats 55ms


def test_upload_download_round_trip(make_cluster, tmp_path):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(21)
    for i, size in enumerate([0, 1, 100, 4096, 1_000_000]):
        data = rng.randbytes(size)
        name = "rt/file-%d.bin" % i
        client.upload(data, name)
        dest = tmp_path / ("back-%d.bin" % i)
        assert client.download(name, dest) == size
        assert dest.read_bytes() == data


def test_download_brings_index_along(make_cluster, tmp_path):
    cluster = make_cluster(2)
    client = cluster.client()
    data = b"ab" * 50
    client.upload(data, "withidx.dat", RecordIndex.uniform(50, 2))
    dest = tmp_path / "got.dat"
    client.download("withidx.dat", dest)
    assert RecordIndex.from_bytes(
        (tmp_path / "got.dat.idx").read_bytes()) == RecordIndex.uniform(50, 2)


def test_download_missing_not_found(make_cluster, tmp_path):
    cluster = make_cluster(2)
    client = cluster.client()
    with pytest.raises(NotFoundError):
        client.download("nope.bin", tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_download_survives_one_dead_replica(make_cluster, tmp_path):
    cluster = make_cluster(4, replica_target=3)
    client = cluster.client(entry="node-0")
    data = random.Random(3).randbytes(20_000)
    client.upload(data, "hot.bin", RecordIndex.uniform(200, 100))
    cluster.replication_cycle()
    client.forget("hot.bin")
    holders = client.locate("hot.bin")
    victim = next(a for a in holders if a != client.entry_server)
    cluster.kill(victim)
    client.forget("hot.bin")
    dest = tmp_path / "alive.bin"
    assert client.download("hot.bin", dest) == len(data)
    assert dest.read_bytes() == data


def test_later_batches_fall_back_to_a_replica_when_the_cached_holder_dies(make_cluster):
    cluster = make_cluster(4, replica_target=2)
    client = cluster.client()
    records = [b"rec-%02d" % i for i in range(30)]
    client.upload(b"".join(records), "batched.dat", RecordIndex.uniform(30, 6))
    cluster.replication_cycle()
    holder, = client.locate("batched.dat")  # the upload's target, as the client cached it
    batches = client.iter_batches(["batched.dat"], batch_rows=10)
    got = list(next(batches))
    cluster.kill(holder)
    for batch in batches:
        got.extend(batch)
    assert got == records


def test_failed_download_leaves_no_destination(make_cluster, tmp_path):
    cluster = make_cluster(2)
    client = cluster.client()
    data = random.Random(4).randbytes(20 * 1024 * 1024)  # three fetch chunks
    client.upload(data, "gone.bin")
    holder = client.locate("gone.bin")[0]
    node = cluster.nodes[holder]

    # fail mid-stream: serve the STAT and first chunk, then go dark
    calls = {"n": 0}
    real_handler = node.handle_message

    def flaky(origin, msg):
        if msg.kind == MessageKind.FETCH:
            calls["n"] += 1
            if calls["n"] >= 2:
                raise TransportError("link dropped")
        return real_handler(origin, msg)

    cluster.network.listen(holder, flaky)
    dest = tmp_path / "partial.bin"
    with pytest.raises(SectorError):
        client.download("gone.bin", dest)
    assert calls["n"] >= 2
    assert not dest.exists()
    assert not dest.with_name(dest.name + ".part").exists()


def test_download_of_an_unindexed_file_leaves_no_stale_sibling_index(make_cluster, tmp_path):
    cluster = make_cluster(2)
    client = cluster.client()
    client.upload(b"abcdefgh", "indexed.bin", RecordIndex.uniform(2, 4))
    client.upload(b"0123456789", "plain.bin")
    dest = tmp_path / "x.dat"
    client.download("indexed.bin", dest)
    assert (tmp_path / "x.dat.idx").exists()
    assert client.download("plain.bin", dest) == 10
    assert not (tmp_path / "x.dat.idx").exists()
    client.upload(dest, "again.bin")  # a stale .idx would make this 2 records of 4 bytes
    assert client.read_records("again.bin", 0, 1) == [b"0123456789"]
    assert client.stat("again.bin")["records"] == 1


def test_resolved_cache_expires_on_not_found(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    client.upload(b"z", "cache.bin")
    assert client.locate("cache.bin")
    assert "cache.bin" in client.known
    with pytest.raises(NotFoundError):
        client.locate("missing.bin")
    assert "missing.bin" not in client.known


def test_locate_only_returns_serving_nodes(make_cluster):
    cluster = make_cluster(5, replica_target=3)
    client = cluster.client()
    data = b"x" * 300
    client.upload(data, "serve.dat", RecordIndex.uniform(3, 100))
    cluster.replication_cycle()
    client.forget("serve.dat")
    for location in client.locate("serve.dat"):
        records, _ = cluster.nodes[location].read_local("serve.dat", 0, 3)
        assert b"".join(records) == data


@pytest.mark.parametrize("names", [[], ()])
def test_run_job_on_no_files_is_a_sector_error(make_cluster, names):
    client = make_cluster(2).client()
    with pytest.raises(SectorError, match="empty stream"):
        client.run_job(names, "identity")


def test_a_killed_entry_leaves_the_other_members_of_the_last_ring_to_ask(make_cluster,
                                                                        tmp_path):
    cluster = make_cluster(3)
    client = cluster.client(entry="node-0")
    rng = random.Random(21)
    records = {}
    for i, address in enumerate(["node-1", "node-2"]):
        name = name_owned_by(cluster.ring, "entry/in-%d.dat" % i, address)
        records[name] = [rng.randbytes(12) for _ in range(40)]
        client.upload(b"".join(records[name]), name, RecordIndex.uniform(40, 12))
    client.members()
    cluster.kill("node-0")
    _, report = client.run_job(list(records), "identity",
                               output=OutputSpec(mode=OutputMode.CLIENT))
    assert report.ok
    assert sorted(report.records) == sorted(r for rs in records.values() for r in rs)
    assert sorted(client.members()) == ["node-1", "node-2"]
    name = next(iter(records))
    assert client.download(name, tmp_path / "got.dat") == 480
    assert (tmp_path / "got.dat").read_bytes() == b"".join(records[name])


def test_members_raises_when_no_member_of_the_last_ring_answers(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client(entry="node-0")
    ring = client.members()
    asked = []  # the peer of each call or connect, as it is tried
    network = cluster.network
    dispatch, connect = network.dispatch, network.connect

    def noted_call(local, peer, request):
        asked.append(peer)
        return dispatch(local, peer, request)

    def noted_connect(local, peer):
        asked.append(peer)
        return connect(local, peer)

    monkeypatch.setattr(network, "dispatch", noted_call)
    monkeypatch.setattr(network, "connect", noted_connect)
    for address in ring:
        network.unlisten(address)
    with pytest.raises(TransportError):
        client.members()
    assert asked == ["node-0"] + [a for a in ring if a != "node-0"]


def test_a_client_registers_no_handler_on_the_network(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    client.upload(b"payload", "a.bin")
    for node in cluster.nodes.values():
        with pytest.raises(TransportError):
            node.transport.open_channel(client.address)


def test_an_upload_and_its_replica_push_hold_at_most_two_pieces(tmp_path, monkeypatch):
    import tracemalloc

    from sectorsphere.cluster import quick_cluster
    from sectorsphere.fileops import TRANSFER_CHUNK
    from sectorsphere.node import StorageNode

    mib = 1 << 20
    rng = random.Random(25)
    with quick_cluster(tmp_path / "c", 2, replica_target=2) as cluster:
        client = cluster.client()
        client.upload(b"warm", "warm.bin")  # the channels and the ring, before measuring
        peaks = {}

        def measured(key, fn, *args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            peaks[key] = tracemalloc.get_traced_memory()[1] - before
            return result

        push_replica = StorageNode.push_replica
        monkeypatch.setattr(StorageNode, "push_replica", lambda node, name, dest: measured(
            ("push", name), push_replica, node, name, dest))
        tracemalloc.start()
        try:
            for size in (16, 32):
                path = tmp_path / ("f%d.dat" % size)
                path.write_bytes(rng.randbytes(size * mib))
                path.with_name(path.name + ".idx").write_bytes(
                    RecordIndex.uniform(size * mib // 4096, 4096).to_bytes())
                measured(("upload", "f%d" % size), client.upload, path, "f%d" % size)
            cluster.replication_cycle()
        finally:
            tracemalloc.stop()
        assert all(node.holds(name) for node in cluster.nodes.values() for name in ("f16", "f32"))
    assert set(peaks) == {("upload", "f16"), ("upload", "f32"),
                          ("push", "warm.bin"), ("push", "f16"), ("push", "f32")}
    for key, peak in peaks.items():
        assert peak < 2 * TRANSFER_CHUNK + 4 * mib, (key, peak / mib)
    for kind in ("upload", "push"):
        assert abs(peaks[kind, "f32"] - peaks[kind, "f16"]) < mib
