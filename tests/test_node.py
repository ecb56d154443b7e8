import random
from pathlib import Path

import numpy as np
import pytest

from sectorsphere.errors import (AccessDeniedError, IntegrityError, NotFoundError,
                                 RangeError, TransportError)
from sectorsphere.fileops import read_records_over
from sectorsphere.node import STORES_DIR
from sectorsphere.records import RecordIndex
from sectorsphere.wire import Message, MessageKind, unpack_payload

CLIENT = "client-0"


def two_record_file():
    data = b"first-----second----"
    return data, RecordIndex([(0, 10), (10, 10)])


def owner_node(cluster, name):
    return cluster.nodes[cluster.ring.owner(name).address]


def test_authorized_store_persists_both_files(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "docs/two.dat", index)
    node = owner_node(cluster, "docs/two.dat")
    path = node._path_for("docs/two.dat")
    assert path.read_bytes() == data
    assert path.with_name(path.name + ".idx").exists()
    assert client.locate("docs/two.dat") == [node.address]


def test_unauthorized_store_denied_and_nothing_persisted(make_cluster):
    cluster = make_cluster(2, acl=("someone-else",))
    client = cluster.client()
    data, index = two_record_file()
    with pytest.raises(AccessDeniedError):
        client.upload(data, "docs/no.dat", index)
    for node in cluster.nodes.values():
        assert not node.holds("docs/no.dat")
        assert not node._path_for("docs/no.dat").exists()
    with pytest.raises(NotFoundError):
        client.locate("docs/no.dat")


def test_empty_acl_means_no_writers(make_cluster):
    cluster = make_cluster(2, acl=())
    client = cluster.client()
    with pytest.raises(AccessDeniedError):
        client.upload(b"xx", "f.dat", RecordIndex([(0, 2)]))


def test_index_overrun_is_integrity_error(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    bad = RecordIndex([(0, 10), (10, 999)])
    with pytest.raises(IntegrityError):
        client.upload(b"0123456789abcdefghij", "docs/bad.dat", bad)
    for node in cluster.nodes.values():
        assert not node.holds("docs/bad.dat")


def test_lookup_unknown_name_not_found(make_cluster):
    cluster = make_cluster(3)
    node = next(iter(cluster.nodes.values()))
    with pytest.raises(NotFoundError):
        node.lookup("never/stored.dat")


def test_read_records_whole_and_single(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "r.dat", index)
    node = owner_node(cluster, "r.dat")
    records, entries = node.read_local("r.dat", 0, 2)
    assert b"".join(records) == data
    assert entries.array.tolist() == [[0, 10], [10, 10]]
    records, entries = node.read_local("r.dat", 1, 1)
    assert list(records) == [b"second----"]
    assert entries.array.tolist() == [[10, 10]]


def test_read_range_overflow(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "r.dat", index)
    node = owner_node(cluster, "r.dat")
    with pytest.raises(RangeError):
        node.read_local("r.dat", 1, 5)


@pytest.mark.parametrize("offset, length", [(0, -1), (-5, 4)])
def test_fetch_of_a_negative_range_is_refused_before_the_file_is_opened(make_cluster,
                                                                        monkeypatch,
                                                                        offset, length):
    cluster = make_cluster(2)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "r.dat", index)
    channel = client.transport.open_channel(owner_node(cluster, "r.dat").address)
    opened = []
    real_open = Path.open

    def recorded(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recorded)
    with pytest.raises(RangeError):
        channel.call(MessageKind.FETCH, {"name": "r.dat", "offset": offset, "length": length})
    assert opened == []


@pytest.mark.parametrize("offset, length", [(0, 53), (52, 1), (53, 0), (100, 1)])
def test_fetch_past_the_end_of_the_store_stream_is_refused(make_cluster, offset, length):
    cluster = make_cluster(2)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "r.dat", index)  # a stream of 20 data and 32 index bytes
    channel = client.transport.open_channel(owner_node(cluster, "r.dat").address)
    with pytest.raises(RangeError):
        channel.call(MessageKind.FETCH, {"name": "r.dat", "offset": offset, "length": length})
    _, body = channel.call(MessageKind.FETCH, {"name": "r.dat", "offset": 18, "length": 34})
    assert body == data[18:] + index.to_bytes()


def test_remote_read_equals_local_read(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    rng = random.Random(5)
    sizes = [rng.randrange(1, 40) for _ in range(50)]
    data = b"".join(rng.randbytes(s) for s in sizes)
    index = RecordIndex.from_sizes(sizes)
    client.upload(data, "rr.dat", index)
    holder = owner_node(cluster, "rr.dat")
    other = next(n for a, n in cluster.nodes.items() if a != holder.address)
    local_records, local_entries = holder.read_local("rr.dat", 3, 17)
    channel = other.transport.open_channel(holder.address)
    remote_records, remote_entries = read_records_over(channel, "rr.dat", [(3, 17)])
    assert list(remote_records) == list(local_records)
    assert remote_entries == local_entries


def test_replicate_check_creates_missing_replicas(make_cluster):
    cluster = make_cluster(5, replica_target=3)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "rep.dat", index)
    owner = owner_node(cluster, "rep.dat")
    actions = owner.replicate_check()
    placed = [a for a in actions if "dest" in a]
    assert len(placed) == 2
    assert len({a["dest"] for a in placed}) == 2
    assert all(a["dest"] != owner.address for a in placed)
    client.forget("rep.dat")
    assert len(client.locate("rep.dat")) == 3


def test_replicate_check_idempotent_at_target(make_cluster):
    cluster = make_cluster(5, replica_target=3)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "rep2.dat", index)
    owner = owner_node(cluster, "rep2.dat")
    owner.replicate_check()
    again = [a for a in owner.replicate_check() if "dest" in a]
    assert again == []
    client.forget("rep2.dat")
    assert len(client.locate("rep2.dat")) == 3  # never exceeds the target


def test_replicate_check_partial_when_cluster_too_small(make_cluster):
    cluster = make_cluster(2, replica_target=2)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "small.dat", index)
    owner = owner_node(cluster, "small.dat")
    owner.config.replica_target = 5  # more than the cluster can hold
    actions = owner.replicate_check()
    warnings = [a for a in actions if "warning" in a]
    placed = [a for a in actions if "dest" in a]
    assert warnings and len(placed) == 1


def test_index_colocated_after_store_and_replication(make_cluster):
    cluster = make_cluster(4, replica_target=3)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "co.dat", index)
    owner_node(cluster, "co.dat").replicate_check()
    holders = 0
    for node in cluster.nodes.values():
        if node.holds("co.dat"):
            holders += 1
            path = node._path_for("co.dat")
            assert path.exists()
            assert path.with_name(path.name + ".idx").exists()
    assert holders == 3


def test_any_replica_returns_identical_bytes(make_cluster):
    cluster = make_cluster(4, replica_target=3)
    client = cluster.client()
    rng = random.Random(9)
    data = rng.randbytes(5_000)
    index = RecordIndex.uniform(50, 100)
    client.upload(data, "det.dat", index)
    owner_node(cluster, "det.dat").replicate_check()
    reads = set()
    for node in cluster.nodes.values():
        if node.holds("det.dat"):
            records, _ = node.read_local("det.dat", 10, 20)
            reads.add(b"".join(records))
    assert len(reads) == 1


def test_file_without_index_is_file_level(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    client.upload(b"no index here", "plain.bin")
    node = owner_node(cluster, "plain.bin")
    stat = node.meta("plain.bin")
    assert not stat["indexed"] and stat["records"] == 1
    records, entries = node.read_local("plain.bin", 0, 1)
    assert list(records) == [b"no index here"]
    with pytest.raises(RangeError):
        node.read_local("plain.bin", 0, 2)


def test_lookup_reflects_replication(make_cluster):
    cluster = make_cluster(5, replica_target=3)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "seq.dat", index)
    assert len(client.locate("seq.dat")) == 1
    owner_node(cluster, "seq.dat").replicate_check()
    client.forget("seq.dat")
    assert len(client.locate("seq.dat")) == 3


def gapped_file():
    """Records with gaps between them, and an empty record."""
    entries = [(0, 5), (7, 3), (12, 0), (12, 4), (20, 6)]
    data = bytes(range(26))
    return data, RecordIndex(entries), [data[o:o + s] for o, s in entries]


def test_remote_read_equals_local_read_with_gaps(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    data, index, expected = gapped_file()
    client.upload(data, "gap.dat", index)
    holder = owner_node(cluster, "gap.dat")
    other = next(n for a, n in cluster.nodes.items() if a != holder.address)
    channel = other.transport.open_channel(holder.address)
    def read(reader, *args):
        records, entries = reader(*args)
        return list(records), entries

    assert read(holder.read_local, "gap.dat", 0, 5) == (expected, index)
    assert read(read_records_over, channel, "gap.dat", [(0, 5)]) == (expected, index)
    assert read(read_records_over, channel, "gap.dat", [(1, 3)]) == read(
        holder.read_local, "gap.dat", 1, 3)


@pytest.mark.parametrize("gapped", [False, True])
def test_remote_read_beyond_transfer_chunk_loops(make_cluster, monkeypatch, gapped):
    from sectorsphere import node as node_module
    from sectorsphere.wire import MessageKind

    monkeypatch.setattr(node_module, "TRANSFER_CHUNK", 64)
    cluster = make_cluster(2)
    client = cluster.client()
    rng = random.Random(3)
    sizes = [rng.randrange(1, 30) for _ in range(40)]
    if gapped:
        entries, offset = [], 0
        for size in sizes:
            entries.append((offset, size))
            offset += size + rng.randrange(0, 3)
        index = RecordIndex(entries)
        data = rng.randbytes(offset)
    else:
        index = RecordIndex.from_sizes(sizes)
        data = rng.randbytes(sum(sizes))
    client.upload(data, "big.dat", index)
    holder = owner_node(cluster, "big.dat")
    other = next(n for a, n in cluster.nodes.items() if a != holder.address)
    channel = other.transport.open_channel(holder.address)
    reads = []

    class Counting:
        def call(self, kind, header=None, body=b""):
            reads.append(kind)
            return channel.call(kind, header, body)

    remote = read_records_over(Counting(), "big.dat", [(2, 35)])
    local = holder.read_local("big.dat", 2, 35)
    assert remote[1] == local[1]
    assert list(remote[0]) == list(local[0]) == [
        data[o:o + s] for o, s in index.array[2:37].tolist()]
    assert len(reads) > 5 and set(reads) == {MessageKind.READ}


def test_a_runs_read_cut_in_the_middle_of_a_run_continues(make_cluster, monkeypatch):
    from sectorsphere import node as node_module

    monkeypatch.setattr(node_module, "TRANSFER_CHUNK", 100)
    cluster = make_cluster(2)
    client = cluster.client()
    rng = random.Random(8)
    records = [rng.randbytes(rng.randrange(1, 30)) for _ in range(60)]
    client.upload(b"".join(records), "runs.dat", RecordIndex.from_sizes(map(len, records)))
    holder = owner_node(cluster, "runs.dat")
    other = next(n for a, n in cluster.nodes.items() if a != holder.address)
    channel = other.transport.open_channel(holder.address)
    asked = []

    class Recording:
        def call(self, kind, header=None, body=b""):
            asked.append(header["runs"])
            return channel.call(kind, header, body)

    runs = [(2, 12), (25, 3), (40, 20)]
    batch, entries = read_records_over(Recording(), "runs.dat", runs)
    assert list(batch) == [r for offset, rows in runs for r in records[offset:offset + rows]]
    assert entries == RecordIndex(np.concatenate(
        [holder.read_local("runs.dat", offset, rows)[1].array for offset, rows in runs]))
    # a later READ starts inside a run that an earlier reply cut
    starts = {offset for offset, _ in runs}
    assert len(asked) > 1 and any(later[0][0] not in starts for later in asked[1:])


def test_a_read_reply_counts_index_entries_toward_its_cap(make_cluster, monkeypatch):
    from sectorsphere import node as node_module

    monkeypatch.setattr(node_module, "TRANSFER_CHUNK", 1000)
    cluster = make_cluster(2)
    client = cluster.client()
    records = [bytes([i % 251]) for i in range(5000)]
    client.upload(b"".join(records), "ones.dat", RecordIndex.from_sizes([1] * len(records)))
    channel = client.transport.open_channel(owner_node(cluster, "ones.dat").address)
    parsed = []
    from_bytes = RecordIndex.from_bytes.__func__

    def recorded(cls, blob):
        parsed.append(len(blob))
        return from_bytes(cls, blob)

    monkeypatch.setattr(RecordIndex, "from_bytes", classmethod(recorded))
    for runs in ([[0, 5000]], [[0, 5000]] * 100):
        header, body = channel.call(MessageKind.READ, {"name": "ones.dat", "runs": runs})
        assert 0 < header["rows"] and len(body) == 17 * header["rows"] <= 1000 + 17
    # the node reads no more of the index than a reply can hold
    assert max(parsed) <= 16 * (1000 // 16 + 1)
    assert list(client.iter_records(["ones.dat"])) == records


@pytest.mark.parametrize("runs", [
    [], [0, 2], [[0]], [[0, 1, 1]], "0,2", None,     # not a non-empty list of pairs
    [[-1, 2]], [[0, -2]], [[0, 0]],                  # negative, or no rows
    [[True, 1]], [[0, True]], [[0.0, 1]], [[0, 1.0]],  # a bool or a float
    [[0, 1], [1, 2]],                                # past the end of the file
], ids=repr)
def test_a_read_of_bad_runs_is_refused(make_cluster, runs):
    cluster = make_cluster(2)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "r.dat", index)
    channel = client.transport.open_channel(owner_node(cluster, "r.dat").address)
    with pytest.raises((RangeError, IntegrityError)):
        channel.call(MessageKind.READ, {"name": "r.dat", "runs": runs})
    header, _ = channel.call(MessageKind.READ, {"name": "r.dat", "runs": [[1, 1], [0, 2]]})
    assert header["rows"] == 3


def test_shuffle_batches_finalize_to_the_same_index_bytes(make_cluster):
    import struct

    from sectorsphere.routing import name_owned_by
    from sectorsphere.sphere import bucket_file_name

    cluster = make_cluster(3)
    node = cluster.nodes["node-0"]
    name = name_owned_by(cluster.ring, bucket_file_name("job-x", 2), "node-0")
    path = node._path_for(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"left over")  # replaced when the bucket commits
    rng = random.Random(11)
    expected, offset = [], 0
    for batch in range(4):
        sizes = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 30))]
        node.shuffle_append("job-x", 2, sizes, rng.randbytes(sum(sizes)), batch, 1)
        for size in sizes:
            expected.append(struct.pack("<QQ", offset, size))
            offset += size
    files = node.finalize_job("job-x", [1, 1, 1, 1])
    assert [(f["name"], f["bucket"]) for f in files] == [(name, 2)]
    assert files[0]["stat"] == node.meta(files[0]["name"])
    assert files[0]["stat"]["records"] == len(expected) and files[0]["stat"]["size"] == offset
    assert path.with_name(path.name + ".idx").read_bytes() == b"".join(expected)
    assert path.stat().st_size == offset and temp_files(node) == []


@pytest.mark.parametrize("job", ["../x", STORES_DIR])
def test_a_refused_append_leaves_nothing_behind(make_cluster, job):
    cluster = make_cluster(3)
    node = cluster.nodes["node-0"]
    with pytest.raises(IntegrityError, match="illegal file name"):
        cluster.client().transport.open_channel("node-0").call(
            MessageKind.SHUFFLE_APPEND, {"job": job, "bucket": 0, "rows": 1, "ordinal": 0,
                                         "attempt": 1}, RecordIndex([(0, 3)]).to_bytes() + b"abc")
    assert (job, 0) not in node._shuffle and temp_files(node) == []


def test_a_node_rebuilt_before_finalize_keeps_no_bucket_file(make_cluster):
    from sectorsphere.node import StorageNode

    cluster = make_cluster(3)
    node = cluster.nodes["node-0"]
    node.shuffle_append("j", 0, [3], b"abc", 0, 1)
    assert temp_files(node)  # the batch waits in a temp file for FINALIZE_JOB
    rebuilt = StorageNode(node.config, node.transport, node.ring)
    assert [p for p in rebuilt.data_dir.rglob("*") if p.is_file()] == []
    assert temp_files(rebuilt) == [] and rebuilt.files == {}


def test_an_append_that_meets_its_bucket_finalized_is_refused(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    node = cluster.nodes["node-0"]
    node.shuffle_append("j", 0, [3], b"abc", 0, 1)
    lock_for, finalized = node._lock_for, []

    def finalize_first(name):  # FINALIZE_JOB runs between the append's lookup and its write
        if not finalized:
            finalized.append(None)
            finalized.extend(node.finalize_job("j", [1]))
        return lock_for(name)

    monkeypatch.setattr(node, "_lock_for", finalize_first)
    with pytest.raises(IntegrityError, match="finalized during the append"):
        node.shuffle_append("j", 0, [3], b"def", 1, 1)
    assert node._shuffle == {} and temp_files(node) == []
    assert list(node.read_local(finalized[1]["name"], 0, 1)[0]) == [b"abc"]


def test_a_rerun_of_a_finalized_job_replaces_its_bucket_file(make_cluster):
    cluster = make_cluster(3)
    node = cluster.nodes["node-0"]
    for run in (b"abcdef", b"ghijkl"):
        node.shuffle_append("j", 0, [3, 3], run, 0, 1)
        files = node.finalize_job("j", [1])
    path = node._path_for(files[0]["name"])
    assert path.read_bytes() == b"ghijkl" and temp_files(node) == []
    assert node.meta(files[0]["name"]) == {"records": 2, "size": 6, "indexed": True}
    assert list(node.read_local(files[0]["name"], 0, 2)[0]) == [b"ghi", b"jkl"]


def test_a_bucket_named_before_a_ring_change_registers_at_its_new_owners(make_cluster,
                                                                         monkeypatch, tmp_path):
    from sectorsphere.cluster import NodeSpec
    from sectorsphere.routing import name_owned_by
    from sectorsphere.sphere import bucket_file_name

    cluster = make_cluster(3)
    before = cluster.ring
    node = cluster.nodes["node-0"]
    for bucket in range(24):
        node.shuffle_append("job-reg", bucket, [3], b"abc", 0, 1)
    names = [name_owned_by(before, bucket_file_name("job-reg", bucket), "node-0")
             for bucket in range(24)]
    # two members join inside node-0's arc, each taking over some of its buckets
    joining = [a for a in ("node-%d" % i for i in range(3, 100))
               if before.owner(a).address == "node-0"][:2]
    for address in joining:
        cluster.add_node(NodeSpec(name=address, address=address,
                                  data_dir=str(tmp_path / address), acl=frozenset({CLIENT})))
    owners = {name: cluster.ring.owner(name).address for name in names}
    assert set(owners.values()) == {"node-0", *joining}
    for bucket in range(24):  # a second batch goes to the name fixed at the first
        node.shuffle_append("job-reg", bucket, [3], b"def", 1, 1)
    lost = []
    dispatch = cluster.network.dispatch

    def lose_the_first_register(local, peer, request):
        if request.kind == MessageKind.REGISTER and not lost:
            lost.append(peer)
            raise TransportError("REGISTER lost")
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", lose_the_first_register)
    with pytest.raises(TransportError, match="REGISTER lost"):
        node.finalize_job("job-reg", [1, 1])
    assert sorted(n for n in node.files if n.startswith("job-reg/")) == sorted(names)
    header = {"records": 2, "size": 6, "indexed": True}
    for name, owner in owners.items():
        if owner == lost[0]:
            with pytest.raises(NotFoundError):
                cluster.nodes[owner].lookup(name)
        else:  # the other new owner was still told, and node-0 registered its own
            assert cluster.nodes[owner].lookup(name) == (["node-0"], header)


def test_concurrent_first_appends_share_one_bucket_file(make_cluster):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    cluster = make_cluster(3)
    node = cluster.nodes["node-1"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # 8 senders race to open each of 3 buckets
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(lambda i: [node.shuffle_append("job-race", bucket, [1, 2], b"abc", i, 1)
                                     for bucket in range(3)], range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    files = node.finalize_job("job-race", [1] * 8)
    assert [f["bucket"] for f in files] == [0, 1, 2]
    for f in files:
        assert cluster.ring.owner(f["name"]).address == "node-1"
        assert f["stat"] == {"records": 16, "size": 24, "indexed": True}
        assert list(node.read_local(f["name"], 0, 16)[0]) == [b"a", b"bc"] * 8


@pytest.mark.parametrize("sizes, body", [([5], b"0123456789"), ([12], b"0123456789"),
                                         ([2**64 - 2, 12], b"0123456789")])
def test_shuffle_batch_whose_sizes_miss_its_body_is_refused(make_cluster, sizes, body):
    import struct

    cluster = make_cluster(3)
    node = cluster.nodes["node-0"]
    entries = b"".join(struct.pack("<QQ", 0, size) for size in sizes)
    with pytest.raises(IntegrityError):  # the last sizes add up to the body mod 2**64
        cluster.client().transport.open_channel("node-0").call(
            MessageKind.SHUFFLE_APPEND, {"job": "job-y", "bucket": 0, "rows": len(sizes),
                                         "ordinal": 0, "attempt": 1}, entries + body)
    assert not (node.data_dir / "job-y").exists() and node.finalize_job("job-y", [1]) == []
    node.shuffle_append("job-y", 0, [3], b"abc", 0, 1)
    files = node.finalize_job("job-y", [1])
    assert files[0]["stat"] == node.meta(files[0]["name"])
    assert files[0]["stat"]["records"] == 1 and files[0]["stat"]["size"] == 3
    assert list(node.read_local(files[0]["name"], 0, 1)[0]) == [b"abc"]


def test_a_node_serves_every_message_kind_but_the_replies(make_cluster):
    cluster = make_cluster(1)
    client = cluster.client()
    channel = client.transport.open_channel(next(iter(cluster.nodes)))

    def answer(kind) -> str:
        response = channel.rpc(Message(kind=kind, request_id=channel.next_request_id()))
        if response.kind != MessageKind.ERROR:
            return "ok"
        return unpack_payload(response.payload)[0]["message"]

    assert "unsupported message kind" in answer(99)  # what a kind no node serves gets
    answers = {kind.name: answer(kind) for kind in MessageKind
               if kind not in (MessageKind.OK, MessageKind.ERROR)}
    assert not [name for name, said in answers.items() if "unsupported message kind" in said]


# ---------------------------------------------------------- streamed stores

def store_piece(channel, offset, body, token="t1", name="s.bin", data_size=10,
                index_size=-1, **overrides):
    header = {"name": name, "data_size": data_size, "index_size": index_size,
              "internal": False, "token": token, "offset": offset, **overrides}
    return channel.call(MessageKind.STORE_DATA, header, body)


def temp_files(node):
    return sorted(p.name for p in (node.data_dir / STORES_DIR).iterdir())


@pytest.mark.parametrize("overrides", [
    {"data_size": 5.5}, {"data_size": -1}, {"data_size": True}, {"data_size": "10"},
    {"data_size": None}, {"offset": 1.5}, {"offset": -1}, {"offset": False},
    {"offset": None}, {"index_size": 5}, {"index_size": -2}, {"index_size": 16.0},
    {"index_size": -1.0}, {"index_size": True}, {"token": None}, {"token": 7},
    {"name": 3}, {"name": ""}, {"name": "../up.bin"}, {"name": STORES_DIR + "/x.dat"},
], ids=repr)
def test_a_malformed_store_piece_is_refused_before_a_byte_is_written(make_cluster, overrides):
    cluster = make_cluster(2)
    client = cluster.client()
    node = owner_node(cluster, "s.bin")
    channel = client.transport.open_channel(node.address)
    with pytest.raises(IntegrityError):
        store_piece(channel, **{"offset": 0, "body": b"01234", **overrides})
    assert node._stores == {} and temp_files(node) == []
    assert not node.holds("s.bin")
    store_piece(channel, 0, b"01234")  # the token is free for a store that is well formed
    header, _ = store_piece(channel, 5, b"56789")
    assert header == {"records": 1, "size": 10, "indexed": False}
    assert node._stores == {} and temp_files(node) == []


def test_an_index_size_that_is_no_multiple_of_an_entry_is_refused_at_the_first_piece(
        make_cluster):
    cluster = make_cluster(1)
    node = next(iter(cluster.nodes.values()))
    channel = cluster.client().transport.open_channel(node.address)
    with pytest.raises(IntegrityError, match="index size 5"):
        store_piece(channel, 0, b"0123456789", data_size=10, index_size=5)
    assert node._stores == {} and temp_files(node) == []


def test_a_store_is_written_to_temp_files_until_its_last_piece(make_cluster):
    cluster = make_cluster(1)
    node = next(iter(cluster.nodes.values()))
    channel = cluster.client().transport.open_channel(node.address)
    data, index = two_record_file()
    stream = data + index.to_bytes()
    def temp_sizes():
        return sorted((p.suffix, p.stat().st_size) for p in (node.data_dir / STORES_DIR).iterdir())

    store_piece(channel, 0, stream[:15], data_size=20, index_size=32)
    assert temp_sizes() == [(".dat", 15), (".idx", 0)]
    assert not node._path_for("s.bin").exists()
    store_piece(channel, 15, stream[15:30], data_size=20, index_size=32)
    assert temp_sizes() == [(".dat", 20), (".idx", 10)]  # a piece that spans both
    header, _ = store_piece(channel, 30, stream[30:], data_size=20, index_size=32)
    assert header == node.meta("s.bin") == {"records": 2, "size": 20, "indexed": True}
    path = node._path_for("s.bin")
    assert path.read_bytes() == data
    assert path.with_name("s.bin.idx").read_bytes() == index.to_bytes()
    assert node._stores == {} and temp_files(node) == []


def test_an_abandoned_store_expires_with_its_temp_file(tmp_path):
    from sectorsphere.clock import VirtualClock
    from sectorsphere.cluster import quick_cluster
    from sectorsphere.node import STORE_DEADLINE

    clock = VirtualClock()
    with quick_cluster(tmp_path, 2, clock=clock) as cluster:
        client = cluster.client()
        node = owner_node(cluster, "s.bin")
        channel = client.transport.open_channel(node.address)
        store_piece(channel, 0, b"01234")  # the first of two pieces
        assert list(node._stores) == ["t1"] and len(temp_files(node)) == 1
        clock.sleep(STORE_DEADLINE / 2)
        store_piece(channel, 0, b"abcde", token="t2", name="s2.bin")
        assert sorted(node._stores) == ["t1", "t2"]  # neither is past its deadline yet
        clock.sleep(STORE_DEADLINE / 2 + 1)
        store_piece(channel, 0, b"x", token="t3", name="s3.bin", data_size=1)
        assert list(node._stores) == ["t2"] and len(temp_files(node)) == 1
        with pytest.raises(IntegrityError):  # the late second piece
            store_piece(channel, 5, b"56789")
        assert not node.holds("s.bin") and not node._path_for("s.bin").exists()
        clock.sleep(STORE_DEADLINE + 1)
        with pytest.raises(IntegrityError):
            store_piece(channel, 5, b"fghij", token="t2", name="s2.bin")
        assert node._stores == {} and temp_files(node) == []
        assert client.read_records("s3.bin", 0, 1) == [b"x"]


def test_a_store_that_stops_half_way_leaves_the_old_version(tmp_path, monkeypatch):
    from sectorsphere import fileops
    from sectorsphere.clock import VirtualClock
    from sectorsphere.cluster import quick_cluster
    from sectorsphere.node import STORE_DEADLINE

    clock = VirtualClock()
    with quick_cluster(tmp_path / "c", 2, clock=clock) as cluster:
        client = cluster.client()
        old = b"old-record" * 8
        client.upload(old, "v.dat", RecordIndex.uniform(8, 10))
        node = owner_node(cluster, "v.dat")
        monkeypatch.setattr(fileops, "TRANSFER_CHUNK", 32)
        dispatch = cluster.network.dispatch

        def stop_after_the_first_piece(local, peer, request):
            if (request.kind == MessageKind.STORE_DATA
                    and unpack_payload(request.payload)[0]["offset"]):
                raise TransportError("the sender went away")
            return dispatch(local, peer, request)

        monkeypatch.setattr(cluster.network, "dispatch", stop_after_the_first_piece)
        with pytest.raises(TransportError):
            client.upload(b"new-record" * 12, "v.dat", RecordIndex.uniform(12, 10))
        monkeypatch.undo()
        assert temp_files(node)  # the stores wait for pieces that never come
        reader = cluster.client("client-1")
        assert reader.read_records("v.dat", 0, 8) == [b"old-record"] * 8
        assert client.download("v.dat", tmp_path / "v.dat") == len(old)
        assert (tmp_path / "v.dat").read_bytes() == old
        assert (tmp_path / "v.dat.idx").read_bytes() == RecordIndex.uniform(8, 10).to_bytes()
        clock.sleep(STORE_DEADLINE + 1)
        client.upload(b"other", "other.bin")  # a new store drops the expired ones
        assert node._stores == {} and temp_files(node) == []
        assert reader.read_records("v.dat", 0, 8) == [b"old-record"] * 8


def test_a_store_whose_index_fails_at_commit_leaves_the_old_version(make_cluster, tmp_path):
    cluster = make_cluster(2, acl=(CLIENT, "client-1"))
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "s.bin", index)
    node = owner_node(cluster, "s.bin")
    channel = client.transport.open_channel(node.address)
    overrun = RecordIndex([(0, 10), (10, 999)]).to_bytes()
    with pytest.raises(IntegrityError):
        store_piece(channel, 0, b"X" * 20 + overrun, data_size=20, index_size=32)
    assert node._stores == {} and temp_files(node) == []
    assert node.meta("s.bin") == {"records": 2, "size": 20, "indexed": True}
    reader = cluster.client("client-1")
    assert reader.download("s.bin", tmp_path / "s.bin") == 20
    assert (tmp_path / "s.bin").read_bytes() == data
    assert (tmp_path / "s.bin.idx").read_bytes() == index.to_bytes()


def test_a_store_denied_by_the_acl_leaves_no_temp_file(make_cluster):
    cluster = make_cluster(2, acl=("someone-else",))
    client = cluster.client()
    data, index = two_record_file()
    with pytest.raises(AccessDeniedError):
        client.upload(data, "no.dat", index)
    for node in cluster.nodes.values():
        assert node._stores == {} and temp_files(node) == []


def test_an_unindexed_rewrite_leaves_no_index_of_the_old_version(make_cluster):
    cluster = make_cluster(1)
    client = cluster.client()
    data, index = two_record_file()
    client.upload(data, "s.bin", index)
    node = owner_node(cluster, "s.bin")
    client.upload(b"plain", "s.bin")
    assert not node._path_for("s.bin.idx").exists()
    assert node.meta("s.bin") == {"records": 1, "size": 5, "indexed": False}
    assert temp_files(node) == []


def test_a_job_output_commits_through_a_temp_file(make_cluster, monkeypatch):
    import os

    cluster = make_cluster(1)
    node = next(iter(cluster.nodes.values()))
    renamed = []
    replace = os.replace

    def recorded(source, target):
        renamed.append((Path(source).parent.name, Path(target).name))
        return replace(source, target)

    monkeypatch.setattr(os, "replace", recorded)
    stat = node.store_file(node.address, "out/o.dat", b"abcdef", RecordIndex.uniform(2, 3),
                           internal=True)
    assert stat == {"records": 2, "size": 6, "indexed": True}
    assert renamed == [(STORES_DIR, "o.dat"), (STORES_DIR, "o.dat.idx")]
    assert list(node.read_local("out/o.dat", 0, 2)[0]) == [b"abc", b"def"]
    assert temp_files(node) == []
