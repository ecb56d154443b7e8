"""Messages that a store, a job and a lookup send, counted on the network."""

import collections
import dataclasses
import sys
import threading

import pytest

from sectorsphere import benchmarks, scenarios, sphere
from sectorsphere.errors import AccessDeniedError, IntegrityError, StaleError
from sectorsphere.fileops import expectation, fetch_file, push_file, read_records_over
from sectorsphere.records import RecordIndex
from sectorsphere.sphere import OutputMode, OutputSpec, SegmentLimits
from sectorsphere.transport import LinkProfile
from sectorsphere.wire import MessageKind


def count_messages(monkeypatch, cluster) -> collections.Counter:
    """Count every request sent over the cluster's network, by kind."""
    sent = collections.Counter()
    dispatch = cluster.network.dispatch

    def counted(local, peer, request):
        sent[MessageKind(request.kind)] += 1
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", counted)
    return sent


def owner_node(cluster, name):
    return cluster.nodes[cluster.ring.owner(name).address]


def held_stat(cluster, name) -> dict:
    return dataclasses.asdict(owner_node(cluster, name).meta(name))


def upload_records(client, name, records):
    client.upload(b"".join(records), name, RecordIndex.from_sizes(map(len, records)))


# ------------------------------------------------------------------ stores

def test_upload_that_fits_one_chunk_is_one_store_message(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    sent = count_messages(monkeypatch, cluster)
    upload_records(client, "one.dat", [b"alpha", b"beta", b"gamma"])
    assert sent == {MessageKind.OWNER: 1, MessageKind.STORE_DATA: 1}
    node = owner_node(cluster, "one.dat")
    assert list(node.read_local("one.dat", 0, 3)[0]) == [b"alpha", b"beta", b"gamma"]


@pytest.mark.parametrize("chunk", [1, 16, 50, 97, 98, 4096])
def test_store_stream_straddling_chunk_edges_comes_back_equal(make_cluster, monkeypatch,
                                                              chunk):
    cluster = make_cluster(2)
    client = cluster.client()
    data = bytes(range(50))
    index_bytes = RecordIndex([(0, 20), (20, 13), (33, 17)]).to_bytes()  # 48 bytes
    owner = client.owner_of("edges.dat")
    channel = client.transport.open_channel(owner)
    sent = count_messages(monkeypatch, cluster)
    done = push_file(channel, "edges.dat", data, index_bytes, chunk=chunk)
    assert done == {"records": 3, "size": 50}
    assert sent == {MessageKind.STORE_DATA: -(-98 // chunk)}
    assert fetch_file(channel, "edges.dat", chunk=chunk) == (data, index_bytes)


@pytest.mark.parametrize("index", [None, RecordIndex([])])
def test_empty_file_stores(make_cluster, monkeypatch, tmp_path, index):
    cluster = make_cluster(2)
    client = cluster.client()
    sent = count_messages(monkeypatch, cluster)
    client.upload(b"", "empty.dat", index)
    assert sent[MessageKind.STORE_DATA] == 1
    assert client.download("empty.dat", tmp_path / "empty.dat") == 0
    assert (tmp_path / "empty.dat").read_bytes() == b""
    assert client.stat("empty.dat")["size"] == 0


def test_store_piece_from_another_sender_is_refused(make_cluster):
    cluster = make_cluster(2, acl=("client-0", "intruder"))
    client = cluster.client()
    owner = client.owner_of("shared.bin")
    header = {"name": "shared.bin", "data_size": 10, "index_size": -1,
              "internal": False, "token": "t-1"}
    mine = client.transport.open_channel(owner)
    mine.call(MessageKind.STORE_DATA, {**header, "offset": 0}, b"01234")
    theirs = cluster.network.endpoint("intruder").open_channel(owner)
    with pytest.raises(AccessDeniedError):
        theirs.call(MessageKind.STORE_DATA, {**header, "offset": 5}, b"XXXXX")
    assert not cluster.nodes[owner].holds("shared.bin")
    with pytest.raises(IntegrityError):  # pieces must arrive in order
        mine.call(MessageKind.STORE_DATA, {**header, "offset": 6}, b"6789")
    mine.call(MessageKind.STORE_DATA, {**header, "offset": 5}, b"56789")
    assert list(cluster.nodes[owner].read_local("shared.bin", 0, 1)[0]) == [b"0123456789"]


# -------------------------------------------------------------------- jobs

def test_job_sends_no_release_and_leaves_no_active_segments(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "rel.dat", [bytes([i]) * 8 for i in range(60)])
    sent = count_messages(monkeypatch, cluster)
    client.run_job(["rel.dat"], "identity", limits=SegmentLimits(100, 100))
    assert sent[MessageKind.SPE_RUN] > 3
    # no release kind exists, and count_messages fails on a kind it cannot name
    assert "SPE_RELEASE" not in MessageKind.__members__
    for node in cluster.nodes.values():
        assert not node.spe_host.active


def test_finalize_calls_are_sent_at_once(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "fin.dat", [bytes([i]) * 8 for i in range(30)])
    barrier = threading.Barrier(len(cluster.nodes), timeout=5)
    for node in cluster.nodes.values():
        def meet_then_finalize(job, finalize=node.finalize_job):
            barrier.wait()  # breaks unless every node's call is in flight together
            return finalize(job)
        monkeypatch.setattr(node, "finalize_job", meet_then_finalize)
    spec = OutputSpec(mode=OutputMode.SHUFFLE, bucket="fin-bucket",
                      destinations=tuple(cluster.nodes))
    sphere.register_bucket("fin-bucket", lambda record, params: record[0] % 3)
    out, report = client.run_job(["fin.dat"], "identity", output=spec)
    assert report.ok and sorted(f["bucket"] for f in report.output_files) == [0, 1, 2]
    assert sum(f.records for f in out.files) == 30


def test_job_drops_the_cached_holders_of_its_outputs(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "in.dat", [bytes([i]) * 8 for i in range(30)])
    out, _ = client.run_job(["in.dat"], "identity", job_id="pinned")
    for name in out.names:
        client.locate(name)
    rerun, _ = client.run_job(["in.dat"], "identity", job_id="pinned")
    assert rerun.names == out.names
    assert not set(client.resolved) & set(rerun.names)


def test_sample_reads_use_one_thread_per_nearest_holder(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    records = [bytes([(7 * i) % 251]) * 100 for i in range(108)]
    names = ["s/%02d.dat" % i for i in range(12)]
    for i, name in enumerate(names):  # 9 records a file: the three sample runs take all
        upload_records(client, name, records[9 * i:9 * (i + 1)])
    stream = client.resolve_stream(names)
    batches = []
    call_each = sphere.call_each

    def recorded(fn, items):
        items = list(items)
        batches.append(len(items))
        return call_each(fn, items)

    monkeypatch.setattr(sphere, "call_each", recorded)
    boundaries = benchmarks.sample_boundaries(client, stream, 4, sample_target=len(records))
    keys = sorted(r[:benchmarks.KEY_SIZE] for r in records)
    assert boundaries == [keys[i * len(keys) // 4] for i in range(1, 4)]
    assert batches == [len({f.locations[0] for f in stream.files})]
    assert batches[0] <= len(cluster.nodes)


def test_stream_names_are_looked_up_in_a_bounded_number_of_lanes(make_cluster, monkeypatch):
    from sectorsphere.client import LOOKUP_LANES

    cluster = make_cluster(2)
    client = cluster.client()
    names = ["lanes/%02d.dat" % i for i in range(LOOKUP_LANES + 5)]
    for i, name in enumerate(names):
        upload_records(client, name, [b"r"] * (i + 1))
    lanes = []
    call_each = sphere.call_each

    def recorded(fn, items):
        items = list(items)
        lanes.append(len(items))
        return call_each(fn, items)

    monkeypatch.setattr(sphere, "call_each", recorded)
    stream = client.resolve_stream(names)
    assert stream.names == tuple(names)
    assert [f.records for f in stream.files] == list(range(1, len(names) + 1))
    assert lanes == [LOOKUP_LANES]


def test_call_each_keeps_order_and_returns_exceptions():
    def half(n):
        if n % 2:
            raise ValueError(n)
        return n // 2

    results = sphere.call_each(half, range(5))
    assert results[0::2] == [0, 1, 2]
    assert [type(r) for r in results[1::2]] == [ValueError, ValueError]
    assert sphere.call_each(half, []) == []


def test_concurrent_stores_and_stats_keep_every_header(make_cluster):
    cluster = make_cluster(3)
    writer, reader = cluster.client(), cluster.client("client-1")
    names = ["many/%02d.bin" % i for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stored = sphere.call_each(lambda name: writer.upload(name.encode() * 3, name), names)
        stats = sphere.call_each(reader.stat, names)
    finally:
        sys.setswitchinterval(interval)
    assert stored == [[cluster.ring.owner(name).address] for name in names]
    assert stats == [held_stat(cluster, name) for name in names]
    assert all(stat["size"] == 3 * len(name) for stat, name in zip(stats, names))
    assert sorted(reader.resolved) == names


# ------------------------------------------------------------------ lookup

def test_stat_after_locate_sends_no_stat(make_cluster, monkeypatch, tmp_path):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "st.dat", [b"one", b"two"])
    sent = count_messages(monkeypatch, cluster)
    client.locate("st.dat")
    assert client.stat("st.dat") == held_stat(cluster, "st.dat")
    client.download("st.dat", tmp_path / "st.dat")
    assert MessageKind.STAT not in sent
    assert sent[MessageKind.LOOKUP] >= 1


def test_reupload_with_a_new_size_shows_the_new_size(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    client.upload(b"abc", "grow.bin")
    assert client.stat("grow.bin")["size"] == 3
    client.upload(b"abcdefgh", "grow.bin")
    assert client.stat("grow.bin")["size"] == 8
    assert cluster.client("client-1").stat("grow.bin")["size"] == 8


def test_lookup_carries_the_header_after_a_node_dies(make_cluster, monkeypatch):
    cluster = make_cluster(4, replica_target=2)
    client = cluster.client()
    name = scenarios.name_owned_by(cluster.ring, "dies.dat", "node-2")
    upload_records(client, name, [b"x" * 5, b"y" * 7])
    cluster.replication_cycle()
    expected = held_stat(cluster, name)
    cluster.kill("node-2")  # the name's owner, and one of its two holders
    assert cluster.ring.owner(name).address != "node-2"
    header, _ = client.transport.open_channel("node-0").call(
        MessageKind.LOOKUP, {"name": name})
    assert header["stat"] == expected
    client.forget(name)
    sent = count_messages(monkeypatch, cluster)
    assert client.stat(name) == expected
    assert sent[MessageKind.LOOKUP] >= 1 and MessageKind.STAT not in sent


# ------------------------------------------------- headers of other versions

@pytest.mark.parametrize("first,second", [
    pytest.param(b"first version", b"a much longer second version",
                 id="a much longer second version"),
    pytest.param(b"first version", b"v2", id="v2"),
    # no request confirms the cached header of an empty file
    pytest.param(b"", b"now with bytes", id="empty-first-version"),
])
def test_download_after_another_client_rewrites_the_file(make_cluster, tmp_path,
                                                         first, second):
    cluster = make_cluster(3, acl=("client-0", "client-1"))
    reader, writer = cluster.client(), cluster.client("client-1")
    reader.upload(first, "shared.bin")
    assert reader.stat("shared.bin")["size"] == len(first)
    reader.locate("shared.bin")
    writer.upload(second, "shared.bin")
    assert reader.download("shared.bin", tmp_path / "shared.bin") == len(second)
    assert (tmp_path / "shared.bin").read_bytes() == second
    writer.upload(second * 2, "shared.bin", RecordIndex.from_sizes([len(second)] * 2))
    assert list(reader.iter_records(["shared.bin"])) == [second, second]
    writer.upload(second, "shared.bin")
    assert reader.stat("shared.bin")["size"] == len(second)


def test_iter_records_again_sends_no_lookup(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "twice.dat", [b"one", b"two", b"three"])
    assert list(client.iter_records(["twice.dat"])) == [b"one", b"two", b"three"]
    sent = count_messages(monkeypatch, cluster)
    assert list(client.iter_records(["twice.dat"], batch_rows=2)) == [b"one", b"two", b"three"]
    assert sent == {MessageKind.READ: 2}


def test_holder_refuses_reads_and_fetches_for_another_version(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "v.dat", [b"one", b"two"])
    stat = held_stat(cluster, "v.dat")
    channel = client.transport.open_channel(client.owner_of("v.dat"))
    with pytest.raises(StaleError):
        read_records_over(channel, "v.dat", 0, 1, {**expectation(stat), "records": 3})
    with pytest.raises(StaleError):
        fetch_file(channel, "v.dat", stat={**stat, "size": 99})
    with pytest.raises(StaleError):
        fetch_file(channel, "v.dat", stat={**stat, "indexed": False})
    assert list(read_records_over(channel, "v.dat", 0, 2, expectation(stat))[0]) == [
        b"one", b"two"]


def test_reads_skip_a_replica_left_at_an_old_version(make_cluster, tmp_path):
    profile = LinkProfile()
    cluster = make_cluster(3, replica_target=2, profile=profile)
    client = cluster.client()
    upload_records(client, "old.dat", [b"a" * 5, b"b" * 5])
    cluster.replication_cycle()
    owner = client.owner_of("old.dat")
    stale = next(h for h in owner_node(cluster, "old.dat").registry["old.dat"] if h != owner)
    profile.set_rtt(client.address, owner, 1.0)  # the old replica is the nearest holder
    new = [b"c" * 7, b"d" * 7, b"e" * 7]
    upload_records(client, "old.dat", new)
    assert list(cluster.nodes[stale].read_local("old.dat", 0, 2)[0]) == [b"a" * 5, b"b" * 5]
    assert client.locate("old.dat")[0] == stale
    assert client.download("old.dat", tmp_path / "old.dat") == 21
    assert (tmp_path / "old.dat").read_bytes() == b"".join(new)
    assert list(client.iter_records(["old.dat"])) == new
