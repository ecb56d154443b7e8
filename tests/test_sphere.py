import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorsphere import sphere
from sectorsphere.errors import JobError, NotFoundError, SectorError
from sectorsphere.fileops import file_header
from sectorsphere.records import ENTRY_SIZE, RecordIndex
from sectorsphere.scheduler import SpeHandle, validate_schedule
from sectorsphere.sphere import (
    OutputMode,
    OutputSpec,
    SegmentLimits,
    Stream,
    StreamFile,
    segment_stream,
    target_segment_bytes,
)


def stream_of(*files):
    return Stream(files=tuple(files))


def unit_file(name, records, locations=("n0",)):
    """1-byte records so sizes read as 'units'."""
    return StreamFile(name=name, stat=file_header(records, records, True),
                      locations=tuple(locations))


# ------------------------------------------------------------- segmentation

def test_target_bytes_within_limits():
    assert target_segment_bytes(60, 6, SegmentLimits(5, 20)) == 10


def test_target_clamps_to_nearest_boundary():
    assert target_segment_bytes(12, 6, SegmentLimits(5, 20)) == 5
    assert target_segment_bytes(600, 6, SegmentLimits(5, 20)) == 20


def test_segments_tile_file_with_short_tail():
    segments = segment_stream(stream_of(unit_file("f", 25)), 2, SegmentLimits(10, 10))
    assert [(s.offset, s.rows) for s in segments] == [(0, 10), (10, 10), (20, 5)]


def test_segments_never_span_files():
    segments = segment_stream(
        stream_of(unit_file("a", 7), unit_file("b", 3)), 1, SegmentLimits(5, 5))
    assert [(s.file, s.offset, s.rows) for s in segments] == [
        ("a", 0, 5), ("a", 5, 2), ("b", 0, 3)]


def test_empty_stream_is_error():
    with pytest.raises(SectorError):
        segment_stream(stream_of(), 2)


def test_empty_files_are_skipped():
    segments = segment_stream(
        stream_of(unit_file("empty", 0), unit_file("full", 4)), 1, SegmentLimits(2, 2))
    assert all(s.file == "full" for s in segments)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tiling_oracle_random_streams(data):
    n_files = data.draw(st.integers(1, 5))
    files = []
    for i in range(n_files):
        records = data.draw(st.integers(0, 200))
        record_size = data.draw(st.integers(1, 64))
        files.append(StreamFile(name="f%d" % i,
                                stat=file_header(records, records * record_size, True),
                                locations=("n",)))
    n_spe = data.draw(st.integers(1, 8))
    s_min = data.draw(st.integers(1, 512))
    s_max = data.draw(st.integers(s_min, 4096))
    segments = segment_stream(stream_of(*files), n_spe, SegmentLimits(s_min, s_max))
    covered = collections.defaultdict(list)
    for s in segments:
        assert s.rows >= 1
        covered[s.file].append((s.offset, s.rows))
    for f in files:
        spans = sorted(covered[f.name])
        expected_next = 0
        for offset, rows in spans:
            assert offset == expected_next  # no gap, no overlap
            expected_next = offset + rows
        assert expected_next == f.records
    # exactly-once: total rows equals total records, distinct ordinals
    assert sum(s.rows for s in segments) == sum(f.records for f in files)
    assert len({s.ordinal for s in segments}) == len(segments)


def test_clamp_is_median():
    rng = random.Random(13)
    for _ in range(500):
        s = rng.randrange(1, 10**9)
        n = rng.randrange(1, 64)
        lo = rng.randrange(1, 10**6)
        hi = lo + rng.randrange(0, 10**6)
        target = target_segment_bytes(s, n, SegmentLimits(lo, hi))
        assert target == sorted((lo, s / n, hi))[1]


# ------------------------------------------------------------ cluster jobs

def upload_records(client, name, records):
    data = b"".join(records)
    client.upload(data, name, RecordIndex.from_sizes(len(r) for r in records))
    return records


def read_stream_records(client, stream):
    out = []
    for f in stream.files:
        out.extend(client.read_records(f.name, 0, f.records))
    return out


def test_identity_job_preserves_multiset(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(8)
    records = [rng.randbytes(rng.randrange(1, 50)) for _ in range(200)]
    upload_records(client, "ident.dat", records)
    out, report = client.run_job(["ident.dat"], "identity",
                                 limits=SegmentLimits(500, 800))
    assert report.ok
    assert sorted(read_stream_records(client, out)) == sorted(records)


def test_counting_operator_conserves_record_count(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    records = [b"x" * 10] * 137
    upload_records(client, "count.dat", records)
    out, report = client.run_job(["count.dat"], "one-per-record",
                                 limits=SegmentLimits(100, 300))
    total = sum(f.records for f in out.files)
    assert total == 137


def test_dual_runs_identical_output_multisets(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(31)
    records = [rng.randbytes(20) for _ in range(300)]
    upload_records(client, "dual.dat", records)
    runs = []
    for _ in range(2):
        out, _ = client.run_job(["dual.dat"], "identity",
                                limits=SegmentLimits(600, 900))
        runs.append(sorted(read_stream_records(client, out)))
    assert runs[0] == runs[1]


def test_unknown_operator_fails_before_scheduling(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "op.dat", [b"abc"])
    with pytest.raises(JobError):
        client.run_job(["op.dat"], "no-such-operator")


def test_unresolvable_stream_not_found(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    with pytest.raises(NotFoundError):
        client.run_job(["missing.dat"], "identity")


def test_spe_reports_identity_acks(make_cluster):
    cluster = make_cluster(1)
    client = cluster.client()
    records = [bytes([65 + i]) * 4 for i in range(10)]
    upload_records(client, "ten.dat", records)
    out, report = client.run_job(["ten.dat"], "identity",
                                 limits=SegmentLimits(1000, 1000))
    assert len(report.segments) == 1
    seg = report.segments[0]
    assert seg["rows"] == 10
    assert seg["acks"] == list(range(1, 11))  # rows//10 == 1: ack per record
    assert seg["final_ack"] == 10
    assert seg["produced"] == 10


def test_acks_strictly_increase_and_end_at_rows(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    rng = random.Random(12)
    records = [rng.randbytes(16) for _ in range(997)]
    upload_records(client, "acks.dat", records)
    out, report = client.run_job(["acks.dat"], "identity",
                                 limits=SegmentLimits(4000, 6000))
    assert report.ok
    for seg in report.segments:
        acks = seg["acks"]
        assert all(a < b for a, b in zip(acks, acks[1:]))
        assert acks[-1] == seg["rows"] == seg["final_ack"]


def test_operator_exception_marks_segment_failed(make_cluster):
    cluster = make_cluster(1)
    client = cluster.client()

    def blow_up(record, params):
        if record == b"boom":
            raise RuntimeError("bad record")
        return (record,)

    sphere.register_operator("test-blow-up", blow_up)
    records = [b"ok-1", b"ok-2", b"ok-3", b"ok-4", b"boom", b"ok-6"]
    upload_records(client, "mine.dat", records)
    with pytest.raises(JobError) as excinfo:
        client.run_job(["mine.dat"], "test-blow-up", limits=SegmentLimits(100, 100))
    assert excinfo.value.failed_segments
    failed = excinfo.value.failed_segments[0]
    assert failed["file"] == "mine.dat"


def test_failed_segment_retries_on_different_node(make_cluster):
    cluster = make_cluster(2, replica_target=2)
    client = cluster.client()
    attempts = collections.defaultdict(list)

    def flaky_once(record, params):
        return (record,)

    def flaky_segment(records, params):
        key = params.decode()
        attempts[key].append(1)
        if len(attempts[key]) == 1:
            raise RuntimeError("transient")
        return records

    sphere.register_operator("test-flaky", flaky_segment, scope="segment")
    upload_records(client, "flaky.dat", [b"r%d" % i for i in range(5)])
    cluster.replication_cycle()  # both nodes hold the file
    client.forget("flaky.dat")
    out, report = client.run_job(["flaky.dat"], "test-flaky", params=b"flaky-1",
                                 limits=sphere.WHOLE_FILE_LIMITS)
    assert report.ok
    tries = sorted(report.segments, key=lambda s: s["attempt"])
    assert len(tries) == 2
    assert tries[0]["status"] == "failed" and tries[1]["status"] == "ok"
    assert tries[0]["node"] != tries[1]["node"]
    spes = [SpeHandle(node) for node in cluster.nodes]
    assert [ev.kind for ev in report.events] == ["assign", "fail", "assign", "complete"]
    assert validate_schedule(report.events, spes) == []


def test_replicated_files_execute_on_both_nodes(make_cluster):
    cluster = make_cluster(2, replica_target=2)
    client = cluster.client()
    rng = random.Random(44)
    for i in range(2):
        upload_records(client, "par-%d.dat" % i,
                       [rng.randbytes(64) for _ in range(64)])
    cluster.replication_cycle()
    for i in range(2):
        client.forget("par-%d.dat" % i)
    out, report = client.run_job(["par-0.dat", "par-1.dat"], "identity",
                                 limits=SegmentLimits(1024, 1024))
    nodes_used = {s["node"] for s in report.segments}
    assert nodes_used == set(cluster.nodes)
    # with every file on both nodes, all work can run on local replicas
    assert all(ev.local for ev in report.events if ev.kind == "assign")


def test_origin_and_local_modes_same_multiset(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(3)
    records = [rng.randbytes(32) for _ in range(120)]
    upload_records(client, "modes.dat", records)
    results = {}
    for mode in (OutputMode.ORIGIN, OutputMode.LOCAL):
        out, report = client.run_job(["modes.dat"], "identity",
                                     output=OutputSpec(mode=mode),
                                     limits=SegmentLimits(400, 600))
        results[mode] = sorted(read_stream_records(client, out))
    assert results[OutputMode.ORIGIN] == results[OutputMode.LOCAL] == sorted(records)


def test_origin_mode_writes_back_to_source_holder(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    records = [b"z" * 20] * 30
    upload_records(client, "orig.dat", records)
    holder = client.locate("orig.dat")[0]
    out, report = client.run_job(["orig.dat"], "identity",
                                 output=OutputSpec(mode=OutputMode.ORIGIN),
                                 limits=SegmentLimits(200, 200))
    for f in report.output_files:
        assert f["target"] == holder == cluster.ring.owner(f["name"]).address


def test_file_level_processing_without_index(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    blob = b"one opaque blob without an index"
    client.upload(blob, "blob.bin")
    out, report = client.run_job(["blob.bin"], "identity")
    assert report.ok and len(report.segments) == 1
    assert report.segments[0]["rows"] == 1
    assert read_stream_records(client, out) == [blob]


def test_client_mode_returns_the_input_in_ordinal_order(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(12)
    first = upload_records(client, "c0.dat", [rng.randbytes(rng.randrange(1, 40))
                                              for _ in range(150)])
    second = upload_records(client, "c1.dat", [b"c1-%03d" % i for i in range(90)])
    out, report = client.run_job(["c0.dat", "c1.dat"], "identity",
                                 output=OutputSpec(mode=OutputMode.CLIENT),
                                 limits=SegmentLimits(300, 300))
    assert report.ok and len(report.segments) > 3
    assert out.files == () and report.output_files == []
    # segments tile the stream in order, so ordinal order is stream order
    assert report.records == first + second
    assert not any(name.startswith(report.job_id) for node in cluster.nodes.values()
                   for name in node.files)


@pytest.mark.parametrize("extra", [0, 1])
def test_client_mode_output_over_the_reply_cap_fails_the_job(make_cluster, extra):
    cluster = make_cluster(2)
    client = cluster.client()
    # the cap covers the whole reply body: the record's index entry, then its bytes
    size = sphere.CLIENT_REPLY_BYTES - ENTRY_SIZE + extra
    sphere.register_operator("test-inflate", lambda records, params: [b"x" * size],
                             scope="segment")
    upload_records(client, "small.dat", [b"a", b"b"])

    def run():
        return client.run_job(["small.dat"], "test-inflate",
                              output=OutputSpec(mode=OutputMode.CLIENT),
                              limits=sphere.WHOLE_FILE_LIMITS)

    if not extra:
        assert run()[1].records == [b"x" * size]
        return
    with pytest.raises(JobError) as excinfo:
        run()
    failed, = excinfo.value.failed_segments  # after its retry on the other node
    assert "%d bytes" % (ENTRY_SIZE + size) in failed["error"]


def test_client_mode_index_entries_count_against_the_reply_cap(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    # one-byte records: their bytes are well under the cap, with their
    # 16-byte index entries they are over it
    count = sphere.CLIENT_REPLY_BYTES // (ENTRY_SIZE + 1) + 1
    sphere.register_operator("test-many-small", lambda records, params: [b"y"] * count,
                             scope="segment")
    upload_records(client, "few.dat", [b"a", b"b"])
    with pytest.raises(JobError) as excinfo:
        client.run_job(["few.dat"], "test-many-small",
                       output=OutputSpec(mode=OutputMode.CLIENT),
                       limits=sphere.WHOLE_FILE_LIMITS)
    failed, = excinfo.value.failed_segments
    assert "%d bytes" % ((ENTRY_SIZE + 1) * count) in failed["error"]


def test_shuffle_job_writes_indexed_bucket_files(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()

    sphere.register_operator("test-first-byte", lambda record, params: ((record[0], record),))
    rng = random.Random(10)
    records = [rng.randbytes(12) for _ in range(400)]
    upload_records(client, "shuf.dat", records)
    out, report = client.run_job(
        ["shuf.dat"], "test-first-byte",
        output=OutputSpec(mode=OutputMode.SHUFFLE, destinations=tuple(sorted(cluster.nodes))),
        limits=SegmentLimits(1000, 2000))
    assert report.ok
    destinations = sorted(cluster.nodes)
    got = []
    for f in report.output_files:
        recs = client.read_records(f["name"], 0, f["stat"]["records"])
        got.extend(recs)
        assert f["target"] == destinations[f["bucket"] % 2]
        assert cluster.ring.owner(f["name"]).address == f["target"]
        for r in recs:
            assert r[0] == f["bucket"]
    assert sorted(got) == sorted(records)


def test_shuffle_homes_leave_out_a_destination_that_is_no_member(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    sphere.register_operator("test-mod3", lambda record, params: ((record[0] % 3, record),))
    rng = random.Random(50)
    records = [rng.randbytes(16) for _ in range(300)]
    upload_records(client, "redir.dat", records)
    destinations = sorted(cluster.nodes)
    victim = next(a for a in destinations
                  if a != client.entry_server and not cluster.nodes[a].files)
    cluster.kill(victim)
    out, report = client.run_job(
        ["redir.dat"], "test-mod3",
        output=OutputSpec(mode=OutputMode.SHUFFLE, destinations=tuple(destinations)),
        limits=SegmentLimits(2000, 3000))
    assert report.ok
    got = []
    for f in out.files:
        assert f.locations[0] != victim  # dead at the start, so no home
        got.extend(client.read_records(f.name, 0, f.records))
    assert sorted(got) == sorted(records)


def test_concurrent_rpcs_share_one_in_memory_channel(make_cluster):
    import threading

    cluster = make_cluster(1)
    client = cluster.client()
    node_address = next(iter(cluster.nodes))
    channel = client.transport.open_channel(node_address)
    from sectorsphere.wire import MessageKind
    errors = []

    def ping(rid):
        try:
            header, _ = channel.call(MessageKind.PING, {"rid": rid})
            assert header["pong"]
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=ping, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert client.transport.open_channel(node_address) is channel


def test_segment_reads_from_the_next_holder_and_writes_back_there(make_cluster):
    cluster = make_cluster(3)
    client = cluster.client()
    records = [b"rec-%02d" % i for i in range(12)]
    upload_records(client, "far.dat", records)
    holder = client.locate("far.dat")[0]
    worker = next(n for a, n in cluster.nodes.items() if a != holder)
    header = {"job": "j-far", "ordinal": 3, "file": "far.dat", "offset": 2, "rows": 8,
              "locations": ["node-unreachable", holder], "operator": "identity",
              "output": OutputSpec(mode=OutputMode.ORIGIN).to_header()}
    report, body = worker.spe_host.run_segment(client.address, header)
    assert report["status"] == "ok" and report["node"] == worker.address and body == b""
    name = report["outputs"][0]["name"]
    assert name.startswith(sphere.seg_file_name("j-far", 3))
    assert cluster.ring.owner(name).address == holder  # registered where it was written
    stat = cluster.nodes[holder].meta(name)
    assert stat["records"] == 8 and stat["size"] == sum(map(len, records[2:10]))
    assert report["outputs"] == [{"name": name, "target": holder, "stat": stat}]
    assert list(cluster.nodes[holder].read_local(name, 0, 8)[0]) == records[2:10]
    assert not worker.holds(name)


def test_segment_operator_sets_buckets_and_acks_once(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()

    def by_first_byte(records, params):
        return records.with_buckets([r[0] % 3 for r in records])

    sphere.register_operator("test-first-byte-mod3", by_first_byte, scope="segment")
    rng = random.Random(21)
    records = [rng.randbytes(rng.randrange(1, 30)) for _ in range(150)]
    upload_records(client, "tagged.dat", records)
    out, report = client.run_job(
        ["tagged.dat"], "test-first-byte-mod3",
        output=OutputSpec(mode=OutputMode.SHUFFLE, destinations=tuple(sorted(cluster.nodes))),
        limits=sphere.WHOLE_FILE_LIMITS)
    assert report.ok and [s["acks"] for s in report.segments] == [[150]]
    got = {f["bucket"]: client.read_records(f["name"], 0, f["stat"]["records"])
           for f in report.output_files}
    assert got == {b: [r for r in records if r[0] % 3 == b] for b in range(3)}


@pytest.mark.parametrize("operator", ["identity", "test-unbucketed-segment"])
def test_a_shuffle_whose_operator_gives_no_bucket_ids_fails(make_cluster, operator):
    sphere.register_operator("test-unbucketed-segment", lambda records, params: records,
                             scope="segment")
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "plain.dat", [b"a", b"b"])
    with pytest.raises(JobError) as caught:
        client.run_job(["plain.dat"], operator,
                       output=OutputSpec(mode=OutputMode.SHUFFLE,
                                         destinations=tuple(sorted(cluster.nodes))))
    errors = [failure["error"] for failure in caught.value.failed_segments]
    assert errors and all("operator %r gives no bucket ids" % operator in error
                          for error in errors)
    assert all(not node._shuffle for node in cluster.nodes.values())


def test_a_shuffle_operator_that_drops_every_record_writes_no_bucket(make_cluster):
    sphere.register_operator("test-drop-all", lambda record, params: ())
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "dropped.dat", [b"a", b"b", b"c"])
    out, report = client.run_job(
        ["dropped.dat"], "test-drop-all",
        output=OutputSpec(mode=OutputMode.SHUFFLE, destinations=tuple(sorted(cluster.nodes))))
    assert report.ok and out.files == () and report.output_files == []


def test_an_output_header_that_names_a_bucket_function_is_refused():
    header = {"mode": OutputMode.SHUFFLE, "bucket": "key-range", "destinations": ["n0"]}
    with pytest.raises(ValueError, match="'bucket'"):
        OutputSpec.from_header(header)
    spec = OutputSpec(mode=OutputMode.SHUFFLE, destinations=("n0",))
    assert OutputSpec.from_header(spec.to_header()) == spec


def test_shuffle_batches_cut_after_the_record_that_fills_them(make_cluster, monkeypatch):
    from sectorsphere.node import StorageNode

    monkeypatch.setattr(sphere, "SHUFFLE_BATCH_BYTES", 80)
    sent = collections.defaultdict(list)
    append = StorageNode.shuffle_append

    def recording(node, job, bucket, sizes, body, ordinal, attempt):
        sent[bucket].append([int(size) for size in sizes])
        return append(node, job, bucket, sizes, body, ordinal, attempt)

    monkeypatch.setattr(StorageNode, "shuffle_append", recording)
    cluster = make_cluster(2)
    client = cluster.client()
    sphere.register_operator("test-parity", lambda record, params: ((record[0] % 2, record),))
    rng = random.Random(6)
    records = [rng.randbytes(rng.randrange(1, 25)) for _ in range(120)]
    upload_records(client, "cuts.dat", records)
    client.run_job(["cuts.dat"], "test-parity",
                   output=OutputSpec(mode=OutputMode.SHUFFLE,
                                     destinations=tuple(sorted(cluster.nodes))),
                   limits=sphere.WHOLE_FILE_LIMITS)
    for bucket in (0, 1):
        expected, batch, size = [], [], 0
        for record in (r for r in records if r[0] % 2 == bucket):
            batch.append(len(record))
            size += len(record) + ENTRY_SIZE  # a record's index entry counts too
            if size >= 80:
                expected.append(batch)
                batch, size = [], 0
        expected += [batch] if batch else []
        assert sent[bucket] == expected


def test_a_shuffle_of_empty_records_is_cut_by_their_index_entries(make_cluster,
                                                                   monkeypatch):
    from sectorsphere.wire import MessageKind, unpack_payload

    monkeypatch.setattr(sphere, "SHUFFLE_BATCH_BYTES", 10 * ENTRY_SIZE)
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "empty.dat", [b""] * 95)
    bodies = []
    dispatch = cluster.network.dispatch

    def recording(local, peer, request):
        if request.kind == MessageKind.SHUFFLE_APPEND:
            bodies.append(unpack_payload(request.payload))
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", recording)
    sphere.register_operator("test-zero", lambda record, params: ((0, record),))
    out, report = client.run_job(["empty.dat"], "test-zero",
                                 output=OutputSpec(mode=OutputMode.SHUFFLE,
                                                   destinations=tuple(sorted(cluster.nodes))),
                                 limits=sphere.WHOLE_FILE_LIMITS)
    assert report.ok and [(f.records, f.size) for f in out.files] == [(95, 0)]
    # each batch stops at the record whose entry brings it to the cap
    assert [header["rows"] for header, _ in bodies] == [10] * 9 + [5]
    assert all(len(body) == ENTRY_SIZE * header["rows"] for header, body in bodies)


@pytest.mark.parametrize("rtt_ms", [0.0, 2.0])
def test_shuffle_sends_at_once_only_over_links_that_wait(make_cluster, monkeypatch, rtt_ms):
    import threading

    from sectorsphere.transport import LinkProfile
    from sectorsphere.wire import MessageKind

    profile = LinkProfile()
    profile.set_rtt("node-0", "node-1", rtt_ms)
    cluster = make_cluster(2, profile=profile)
    client = cluster.client()
    homes = []
    if rtt_ms:  # each home's one SHUFFLE_APPEND waits until the other's is in flight
        barrier = threading.Barrier(2, timeout=5)
        dispatch = cluster.network.dispatch

        def meeting(local, peer, request):
            if request.kind == MessageKind.SHUFFLE_APPEND:
                homes.append(peer)
                barrier.wait()
            return dispatch(local, peer, request)

        monkeypatch.setattr(cluster.network, "dispatch", meeting)
    sphere.register_operator("test-parity-at-once",
                             lambda record, params: ((record[0] % 2, record),))
    rng = random.Random(9)
    records = [rng.randbytes(rng.randrange(1, 20)) for _ in range(80)]
    upload_records(client, "once.dat", records)
    stream = client.resolve_stream(["once.dat"])
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    out, report = client.run_job(
        stream, "test-parity-at-once",
        output=OutputSpec(mode=OutputMode.SHUFFLE, destinations=("node-0", "node-1")),
        limits=sphere.WHOLE_FILE_LIMITS)
    assert report.ok
    assert sorted(read_stream_records(client, out)) == sorted(records)
    if rtt_ms:
        assert sorted(homes) == ["node-0", "node-1"]
    else:  # the job's workers, one per SPE, and no thread for the sends
        assert len(started) == len(cluster.nodes)
