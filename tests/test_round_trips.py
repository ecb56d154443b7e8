"""Messages that a store, a job and a lookup send, counted on the network."""

import collections
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from sectorsphere import benchmarks, fileops, scenarios, sphere
from sectorsphere.clock import VirtualClock
from sectorsphere.errors import AccessDeniedError, IntegrityError, StaleError, TransportError
from sectorsphere.fileops import fetch_file, push_file, read_records_over
from sectorsphere.records import RecordIndex
from sectorsphere.sphere import OutputMode, OutputSpec, SegmentLimits
from sectorsphere.transport import LANES, LinkProfile, Transport
from sectorsphere.wire import MessageKind, unpack_payload


def count_messages(monkeypatch, cluster, sender=None) -> collections.Counter:
    """Count every request sent over the cluster's network, or only those
    `sender` sends, by kind."""
    sent = collections.Counter()
    dispatch = cluster.network.dispatch

    def counted(local, peer, request):
        if sender in (None, local):
            sent[MessageKind(request.kind)] += 1
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", counted)
    return sent


def count_threads(monkeypatch) -> list:
    """Record every thread started from now on."""
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def track_running(monkeypatch, target, attribute) -> list:
    """Wrap target.attribute so that the list returned holds one token for
    each of its calls still running."""
    running = []
    fn = getattr(target, attribute)

    def tracked(*args, **kwargs):
        token = object()
        running.append(token)
        try:
            return fn(*args, **kwargs)
        finally:
            running.remove(token)

    monkeypatch.setattr(target, attribute, tracked)
    return running


def meet_on_reads(monkeypatch, cluster, parties, first_only=False, kind=MessageKind.READ):
    """Hold the first `parties` READ requests, or requests of another
    kind, (only READs whose first run starts at record 0, with first_only)
    until all of them are in flight; a barrier that breaks after 5 s fails
    the call that waits on it."""
    barrier = threading.Barrier(parties, timeout=5)
    held = []
    lock = threading.Lock()
    dispatch = cluster.network.dispatch

    def meeting(local, peer, request):
        if request.kind == kind:
            header, _ = unpack_payload(request.payload)
            with lock:
                meet = len(held) < parties and not (first_only and header["runs"][0][0])
                if meet:
                    held.append((peer, header["name"]))
            if meet:
                barrier.wait()
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", meeting)
    return held


def owner_node(cluster, name):
    return cluster.nodes[cluster.ring.owner(name).address]


def held_stat(cluster, name, holder=None) -> dict:
    node = cluster.nodes[holder] if holder else owner_node(cluster, name)
    return node.meta(name)


def upload_records(client, name, records):
    client.upload(b"".join(records), name, RecordIndex.from_sizes(map(len, records)))


# ------------------------------------------------------------------ stores

def test_upload_that_fits_one_chunk_is_one_store_message(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    sent = count_messages(monkeypatch, cluster)
    upload_records(client, "one.dat", [b"alpha", b"beta", b"gamma"])
    assert sent == {MessageKind.MEMBERS: 1, MessageKind.STORE_DATA: 1}
    node = owner_node(cluster, "one.dat")
    assert list(node.read_local("one.dat", 0, 3)[0]) == [b"alpha", b"beta", b"gamma"]
    sent.clear()  # the client keeps its ring, so a second upload asks nobody
    upload_records(client, "two.dat", [b"delta"])
    assert sent == {MessageKind.STORE_DATA: 1}
    assert owner_node(cluster, "two.dat").holds("two.dat")


@pytest.mark.parametrize("chunk", [1, 16, 50, 97, 98, 4096])
def test_store_stream_straddling_chunk_edges_comes_back_equal(make_cluster, monkeypatch,
                                                              chunk):
    monkeypatch.setattr(fileops, "TRANSFER_CHUNK", chunk)
    cluster = make_cluster(2)
    client = cluster.client()
    data = bytes(range(50))
    index_bytes = RecordIndex([(0, 20), (20, 13), (33, 17)]).to_bytes()  # 48 bytes
    owner = client.owner_of("edges.dat")
    channel = client.transport.open_channel(owner)
    sent = count_messages(monkeypatch, cluster)
    done = push_file(channel, "edges.dat", data, index_bytes)
    assert done == cluster.nodes[owner].meta("edges.dat")
    assert done == {"records": 3, "size": 50, "indexed": True}
    assert sent == {MessageKind.STORE_DATA: -(-98 // chunk)}
    sent.clear()
    assert fetch_file(channel, "edges.dat", done) == (data, index_bytes)
    assert sent == {MessageKind.FETCH: -(-98 // chunk)}


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


@pytest.mark.parametrize("rtt_ms", [0.0, 1.0])
def test_finalize_calls_are_sent_at_once(make_cluster, monkeypatch, rtt_ms):
    """Over links that wait, every home's FINALIZE_JOB is in flight at
    once; over zero-latency links the homes are finalized in the caller's
    thread, so the job starts no thread but its workers."""
    cluster = make_cluster(3, profile=LinkProfile(default=rtt_ms))
    client = cluster.client()
    upload_records(client, "fin.dat", [bytes([i]) * 8 for i in range(30)])
    if rtt_ms:
        barrier = threading.Barrier(len(cluster.nodes), timeout=5)
        for node in cluster.nodes.values():
            def meet_then_finalize(job, committed, finalize=node.finalize_job):
                barrier.wait()  # breaks unless every node's call is in flight together
                return finalize(job, committed)
            monkeypatch.setattr(node, "finalize_job", meet_then_finalize)
    spec = OutputSpec(mode=OutputMode.SHUFFLE, bucket="fin-bucket",
                      destinations=tuple(cluster.nodes))
    sphere.register_bucket("fin-bucket", lambda record, params: record[0] % 3)
    stream = client.resolve_stream(["fin.dat"])
    started = count_threads(monkeypatch)
    out, report = client.run_job(stream, "identity", output=spec)
    assert report.ok and sorted(f["bucket"] for f in report.output_files) == [0, 1, 2]
    assert sum(f.records for f in out.files) == 30
    if not rtt_ms:
        assert len(started) == len(cluster.nodes)  # the job's workers, one per SPE


def test_a_home_owns_its_buckets_and_sends_no_register(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(44)
    records = [rng.randbytes(100) for _ in range(600)]
    upload_records(client, "reg.dat", records)
    keys = sorted(r[:benchmarks.KEY_SIZE] for r in records)
    params = json.dumps({"boundaries": [keys[30 * i].hex() for i in range(1, 20)]}).encode()
    homes = tuple(sorted(cluster.nodes))
    sent = {home: count_messages(monkeypatch, cluster, sender=home) for home in homes}
    out, report = client.run_job(["reg.dat"], "key-range", params=params,
                                 output=OutputSpec(mode=OutputMode.SHUFFLE, destinations=homes))
    assert report.ok and [f.records for f in out.files] == [30] * 20
    for home in homes:  # 20 buckets over 3 homes, each bucket named so its home owns it
        owners = {cluster.ring.owner(f.name).address for f in out.files if f.locations == (home,)}
        assert owners == {home} and sent[home][MessageKind.REGISTER] == 0
    for f in out.files:
        holder, = f.locations
        client.forget(f.name)
        assert client.stat(f.name) == held_stat(cluster, f.name, holder)
        assert client.locate(f.name) == [holder]


@pytest.mark.parametrize("mode", [OutputMode.LOCAL, OutputMode.ORIGIN])
def test_job_caches_the_holders_and_headers_of_its_outputs(make_cluster, monkeypatch, mode):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "in.dat", [bytes([i]) * 8 for i in range(30)])
    output = OutputSpec(mode=mode)
    out, _ = client.run_job(["in.dat"], "identity", output=output, job_id="pinned")
    first = {name: client.known[name].stat for name in out.names}
    again = [bytes([i]) * 12 for i in range(45)]
    upload_records(client, "in.dat", again)
    rerun, _ = client.run_job(["in.dat"], "identity", output=output, job_id="pinned")
    if mode == OutputMode.ORIGIN:
        # written back to the input's one holder, who owns each output's
        # name, so a rerun under the same job id writes the same names; in
        # LOCAL mode a segment run on another node writes another name
        assert rerun.names == out.names
    for f in rerun.files:
        holder, = f.locations
        assert client.known[f.name] is f
        assert f.stat == held_stat(cluster, f.name, holder)
        assert f.stat != first.get(f.name)
    sent = count_messages(monkeypatch, cluster)
    assert list(client.iter_records(rerun.names)) == again
    assert set(sent) == {MessageKind.READ}


def test_client_mode_records_come_back_once_when_a_reply_is_lost(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    records = [b"lost-%03d" % i for i in range(120)]
    upload_records(client, "lost.dat", records)
    dropped = []
    dispatch = cluster.network.dispatch

    def drop_first_run_reply(local, peer, request):
        response = dispatch(local, peer, request)
        if request.kind == MessageKind.SPE_RUN and not dropped:
            dropped.append(unpack_payload(request.payload)[0]["ordinal"])
            raise TransportError("reply lost")
        return response

    monkeypatch.setattr(cluster.network, "dispatch", drop_first_run_reply)
    _, report = client.run_job(["lost.dat"], "identity",
                               output=OutputSpec(mode=OutputMode.CLIENT),
                               limits=SegmentLimits(200, 200))
    assert report.ok and len(dropped) == 1
    attempts = [r["attempt"] for r in report.segments if r["ordinal"] == dropped[0]]
    assert sorted(attempts) == [1, 2]
    assert report.records == records


def test_angle_clustering_job_stores_and_reads_back_nothing(make_cluster, monkeypatch, tmp_path):
    from sectorsphere import angle

    cluster = make_cluster(3)
    client = cluster.client()
    vectors, _ = angle.synthetic_windows(n_windows=12, blobs=2, dim=2, per_window=20,
                                         seed=8, shift_window=10)
    angle.write_feature_file(tmp_path / "f.txt", vectors)
    client.upload(tmp_path / "f.txt", "ang/f.txt")
    sent = {}
    run_job = client.run_job

    def counted(stream, operator_name, **kwargs):
        sent[operator_name] = count_messages(monkeypatch, cluster)
        result = run_job(stream, operator_name, **kwargs)
        sent["after"] = count_messages(monkeypatch, cluster, sender=client.address)
        return result

    monkeypatch.setattr(client, "run_job", counted)
    models, _ = angle.run_pipeline_distributed(client, ["ang/f.txt"], length=1.0, t0=0.0,
                                               k=2, seed=5, job_id="counted")
    assert len(models) == 12
    clustering = sent["window-cluster"]
    assert clustering[MessageKind.SPE_RUN] == 12
    assert clustering[MessageKind.REGISTER] == clustering[MessageKind.STORE_DATA] == 0
    assert sent["after"] == {}  # no READ of the models


def test_acks_over_zero_latency_links_start_no_thread(make_cluster, monkeypatch):
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "acks.dat", [bytes([i]) * 8 for i in range(120)])
    stream = client.resolve_stream(["acks.dat"])
    started = count_threads(monkeypatch)
    _, report = client.run_job(stream, "identity", limits=SegmentLimits(240, 240))
    assert len(started) == len(cluster.nodes)  # the job's workers, one per SPE
    # each segment acks every tenth of its 30 rows, in its report
    assert sorted(seg["ordinal"] for seg in report.segments) == list(range(4))
    for seg in report.segments:
        assert seg["acks"] == list(range(3, 31, 3))


def test_a_zero_latency_terasort_starts_only_its_jobs_workers(make_cluster, monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(43)
    names = []
    for i, address in enumerate(sorted(cluster.nodes)):
        names.append(scenarios.name_owned_by(cluster.ring, "zt/in-%d.dat" % i, address))
        upload_records(client, names[-1], [rng.randbytes(100) for _ in range(100)])
    started = count_threads(monkeypatch)
    out, reports = benchmarks.terasort(client, names)
    assert reports["sort"].ok and sum(f.records for f in out.files) == 300
    # the shuffle's and the sort's workers, one per SPE; the lookups, sample
    # reads, shuffle sends and finalizes all run in the threads that reach them
    assert len(started) == 2 * len(cluster.nodes)


def test_a_second_terasort_starts_no_fan_out_thread(make_cluster, monkeypatch):
    cluster = make_cluster(3, profile=LinkProfile(default=1.0))
    client = cluster.client()
    rng = random.Random(47)
    names = []
    for i, address in enumerate(sorted(cluster.nodes)):
        names.append(scenarios.name_owned_by(cluster.ring, "again/in-%d.dat" % i, address))
        upload_records(client, names[-1], [rng.randbytes(100) for _ in range(300)])
    # in the first run, the client's three sample reads meet in flight, and
    # so do each node's three shuffle sends: every executor then has as many
    # threads as one fan-out of the job, whichever of its calls ends first
    fan_outs = {}
    lock = threading.Lock()
    dispatch = cluster.network.dispatch

    def meeting(local, peer, request):
        if request.kind in (MessageKind.READ, MessageKind.SHUFFLE_APPEND):
            with lock:
                barrier, calls = fan_outs.setdefault(local, (threading.Barrier(3, timeout=5), []))
                calls.append(request.kind)
            if len(calls) <= 3:
                barrier.wait()
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", meeting)
    first, _ = benchmarks.terasort(client, names, job_id="first")
    assert sorted(fan_outs) == sorted([client.address, *cluster.nodes])
    monkeypatch.undo()
    started = count_threads(monkeypatch)
    second, _ = benchmarks.terasort(client, names, job_id="second")
    # the sample reads, shuffle sends and finalizes run on the executors
    # that the first run started, of the client and of each node; the new
    # threads are the two jobs' workers, one per SPE
    assert len(started) == 2 * len(cluster.nodes)
    assert list(client.iter_records(second.names)) == list(client.iter_records(first.names))


def test_an_ack_never_connects_to_the_client_in_the_segment_thread(make_cluster,
                                                                  monkeypatch):
    sleeps = []

    class RecordingClock(VirtualClock):
        def sleep(self, seconds):
            sleeps.append(seconds)
            super().sleep(seconds)

    profile = LinkProfile()
    cluster = make_cluster(2, profile=profile, clock=RecordingClock())
    client = cluster.client()
    for node in cluster.nodes:  # only the links to the client wait, 8 ms a round trip
        profile.set_rtt(client.address, node, 8.0)
    upload_records(client, "wan-acks.dat", [bytes([i]) * 8 for i in range(120)])
    stream = client.resolve_stream(["wan-acks.dat"])
    for node in cluster.nodes:  # so that no connect of the client's falls in the job
        client.transport.open_channel(node)
    started = count_threads(monkeypatch)
    sleeps.clear()
    _, report = client.run_job(stream, "identity", limits=SegmentLimits(240, 240))
    assert sum(len(seg["acks"]) for seg in report.segments) == 40
    assert len(started) == len(cluster.nodes)  # the job's workers alone, none per ack
    assert 0.004 in sleeps  # each SPE_RUN waits half the round trip each way
    assert 0.008 not in sleeps  # and no node connects to the client


@pytest.mark.parametrize("rtt_ms", [0.0, 1.0])
def test_sample_reads_overlap_only_over_links_that_wait(make_cluster, monkeypatch, rtt_ms):
    cluster = make_cluster(3, profile=LinkProfile(default=rtt_ms))
    client = cluster.client()
    records = [bytes([(7 * i) % 251]) * 100 for i in range(108)]
    # files owned by the nodes in turn, so the first eight sample runs hit all three
    names = [scenarios.name_owned_by(cluster.ring, "s/%02d.dat" % i, "node-%d" % (i % 3))
             for i in range(12)]
    for i, name in enumerate(names):  # 9 records a file: the three sample runs take all
        upload_records(client, name, records[9 * i:9 * (i + 1)])
    stream = client.resolve_stream(names)
    started = count_threads(monkeypatch)
    running = track_running(monkeypatch, client, "read_runs")
    held = meet_on_reads(monkeypatch, cluster, LANES) if rtt_ms else []
    sent = count_messages(monkeypatch, cluster)
    boundaries = benchmarks.sample_boundaries(client, stream, 4, sample_target=len(records))
    keys = sorted(r[:benchmarks.KEY_SIZE] for r in records)
    assert boundaries == [keys[i * len(keys) // 4] for i in range(1, 4)]
    assert sent == {MessageKind.READ: len(stream.files)}  # each file's three runs in one
    assert running == []  # no read outlives the sample
    if rtt_ms:  # the first read of every lane met the others in flight
        assert len(started) <= LANES  # the client transport's executor alone
        assert {peer for peer, _ in held} == set(cluster.nodes)
    else:
        assert started == []


def test_a_terasort_over_its_clients_uploads_sends_no_lookup_and_one_sample_read_a_file(
        make_cluster, monkeypatch):
    cluster = make_cluster(3, profile=LinkProfile(default=1.0))
    client = cluster.client()
    rng = random.Random(43)
    files = {}
    for i, address in enumerate(sorted(cluster.nodes)):
        name = scenarios.name_owned_by(cluster.ring, "up/in-%d.dat" % i, address)
        files[name] = [rng.randbytes(100) for _ in range(600)]
        upload_records(client, name, files[name])
    sampled, chosen = [], []
    read_runs, sample_boundaries = client.read_runs, benchmarks.sample_boundaries

    def recorded_runs(name, runs):
        sampled.append((name, list(runs)))
        return read_runs(name, runs)

    def recorded_boundaries(*args, **kwargs):
        chosen.append(sample_boundaries(*args, **kwargs))
        return chosen[-1]

    monkeypatch.setattr(client, "read_runs", recorded_runs)
    monkeypatch.setattr(benchmarks, "sample_boundaries", recorded_boundaries)
    sent = count_messages(monkeypatch, cluster, sender=client.address)
    out, _ = benchmarks.terasort(client, list(files), job_id="uploaded", sample_target=300)
    assert MessageKind.LOOKUP not in sent
    assert sent[MessageKind.READ] == len(files)
    # one READ a file, of its head, middle and tail runs
    assert sorted(name for name, _ in sampled) == sorted(files)
    assert all(len(runs) == 3 and runs[0][0] == 0 and sum(runs[-1]) == 600
               for _, runs in sampled)
    monkeypatch.undo()
    keys = sorted(record[:benchmarks.KEY_SIZE] for name, runs in sampled
                  for offset, rows in runs for record in client.read_records(name, offset, rows))
    assert chosen == [[keys[i * len(keys) // 3] for i in (1, 2)]]
    assert list(client.iter_records(out.names)) == sorted(
        (r for records in files.values() for r in records),
        key=lambda r: r[:benchmarks.KEY_SIZE])


# ------------------------------------------------ job outputs read by name

@pytest.mark.parametrize("wan", [False, True], ids=["zero-latency", "wan"])
def test_terasplit_and_readback_of_a_terasort_output_send_no_lookup(make_cluster, monkeypatch,
                                                                    wan):
    if wan:
        cluster = make_cluster(6, addresses=list(scenarios.WAN_SITES),
                               profile=scenarios.wan_profile())
    else:
        cluster = make_cluster(3)
    client = cluster.client()
    rng = random.Random(41)
    records = [rng.randbytes(100) for _ in range(100 * len(cluster.nodes))]
    names = []
    for i, address in enumerate(sorted(cluster.nodes)):
        names.append(scenarios.name_owned_by(cluster.ring, "ts/in-%d.dat" % i, address))
        upload_records(client, names[-1], records[100 * i:100 * (i + 1)])
    out, _ = benchmarks.terasort(client, names, job_id="no-lookup")
    sent = count_messages(monkeypatch, cluster)
    ordered = sorted(records, key=lambda r: r[:benchmarks.KEY_SIZE])
    assert benchmarks.terasplit(client, out) == benchmarks.terasplit_pairs(
        (r[:benchmarks.KEY_SIZE], benchmarks.record_label(r)) for r in ordered)
    assert list(client.iter_records(out.names)) == ordered
    assert sent == {MessageKind.READ: 2 * len(out.files)}


@pytest.mark.parametrize("read", ["iter_records", "download"])
def test_a_stale_output_header_is_refused_and_looked_up_once(make_cluster, monkeypatch,
                                                             tmp_path, read):
    cluster = make_cluster(3, acl=("client-0", "client-1"))
    reader, writer = cluster.client(), cluster.client("client-1")
    upload_records(reader, "src.dat", [bytes([i]) * 10 for i in range(60)])
    out, _ = reader.run_job(["src.dat"], "identity", job_id="hinted",
                            limits=SegmentLimits(30, 30))
    # an output that its ring owner holds, so that a re-upload replaces it there
    name = next(f.name for f in out.files
                if f.locations == (cluster.ring.owner(f.name).address,))
    assert reader.known[name].size == 30
    new = [b"new-%d" % i for i in range(7)]
    upload_records(writer, name, new)
    sent = count_messages(monkeypatch, cluster, sender=reader.address)
    if read == "iter_records":
        assert list(reader.iter_records([name])) == new
    else:
        assert reader.download(name, tmp_path / "out.dat") == len(b"".join(new))
        assert (tmp_path / "out.dat").read_bytes() == b"".join(new)
    assert sent[MessageKind.LOOKUP] == 1
    assert reader.known[name].stat == held_stat(cluster, name)


def test_output_reads_fall_back_to_a_replica_when_the_holder_dies(make_cluster, tmp_path):
    cluster = make_cluster(4, replica_target=2)
    holder = cluster.ring.owner("r.dat").address  # the input's one holder
    client = cluster.client(entry=next(a for a in sorted(cluster.nodes) if a != holder))
    records = [b"rec-%03d" % i for i in range(40)]
    upload_records(client, "r.dat", records)
    out, _ = client.run_job(["r.dat"], "identity", job_id="rep",
                            output=OutputSpec(mode=OutputMode.ORIGIN))
    assert {f.locations for f in out.files} == {(holder,)}
    cluster.replication_cycle()
    cluster.kill(holder)
    first = out.files[0]
    assert client.download(first.name, tmp_path / "first.dat") == first.size
    assert (tmp_path / "first.dat").read_bytes() == b"".join(records[:first.records])
    assert list(client.iter_records(out.names)) == records
    assert all(holder not in client.locate(name) for name in out.names)


@pytest.mark.parametrize("rtt_ms", [0.0, 1.0])
def test_iter_batches_yields_in_stream_order_while_first_reads_overlap(make_cluster,
                                                                       monkeypatch, rtt_ms):
    cluster = make_cluster(3, profile=LinkProfile(default=rtt_ms))
    client = cluster.client()
    names = [scenarios.name_owned_by(cluster.ring, "order/%02d.dat" % i, "node-%d" % (i % 3))
             for i in range(5)]
    files = [[b"%d-%d" % (i, j) for j in range(3 + i)] for i in range(len(names))]
    for name, records in zip(names, files):
        upload_records(client, name, records)
    client.resolve_stream(names)  # caches each file's holder and header
    started = count_threads(monkeypatch)
    running = track_running(monkeypatch, client, "_against_header")
    held = meet_on_reads(monkeypatch, cluster, len(names), first_only=True) if rtt_ms else []
    batches = [list(batch) for batch in client.iter_batches(names, batch_rows=2)]
    assert batches == [records[i:i + 2] for records in files
                       for i in range(0, len(records), 2)]
    assert running == []  # no read outlives the iteration
    if rtt_ms:
        assert sorted(name for _, name in held) == sorted(names)
        assert len(started) <= LANES  # the client transport's executor alone
    else:
        assert started == []


def test_stream_names_are_looked_up_in_a_bounded_number_of_lanes(make_cluster, monkeypatch):
    cluster = make_cluster(2, profile=LinkProfile(default=1.0))
    writer = cluster.client()
    names = ["lanes/%02d.dat" % i for i in range(LANES + 5)]
    for i, name in enumerate(names):
        upload_records(writer, name, [b"r"] * (i + 1))
    client = cluster.client("client-1")  # knows no name, so it looks each one up
    client.members()
    started = count_threads(monkeypatch)
    running = track_running(monkeypatch, client, "_lookup")
    held = meet_on_reads(monkeypatch, cluster, LANES, kind=MessageKind.LOOKUP)
    sent = count_messages(monkeypatch, cluster)
    stream = client.resolve_stream(names)
    assert stream.names == tuple(names)
    assert [f.records for f in stream.files] == list(range(1, len(names) + 1))
    assert running == []  # no LOOKUP outlives the stream's resolution
    assert len(started) <= LANES  # the client transport's executor alone
    assert sorted(name for _, name in held) == names[:LANES]  # they met in flight
    assert sent == {MessageKind.LOOKUP: len(names)}  # each at its owner, none relayed


def test_first_reads_of_names_not_looked_up_overlap(make_cluster, monkeypatch):
    cluster = make_cluster(3, profile=LinkProfile(default=1.0))
    writer = cluster.client()
    names = ["fresh/%02d.dat" % i for i in range(LANES)]
    files = [[b"%d-%d" % (i, j) for j in range(4)] for i in range(len(names))]
    for name, records in zip(names, files):
        upload_records(writer, name, records)
    reader = cluster.client("client-1")  # no name looked up, and no ring yet
    started = count_threads(monkeypatch)
    running = track_running(monkeypatch, reader, "_against_header")
    held = meet_on_reads(monkeypatch, cluster, len(names), kind=MessageKind.LOOKUP)
    sent = count_messages(monkeypatch, cluster)
    assert [list(batch) for batch in reader.iter_batches(names)] == files
    assert sorted(name for _, name in held) == names  # every LOOKUP met the others in flight
    assert running == []  # no read outlives the iteration
    # the connects ahead, queued by the ring's first MEMBERS reply, and
    # the reads share the client transport's executor
    assert len(started) <= LANES
    assert sent == {MessageKind.MEMBERS: 1, MessageKind.LOOKUP: len(names),
                    MessageKind.READ: len(names)}


def test_stream_names_over_zero_latency_links_are_looked_up_in_no_thread(make_cluster,
                                                                        monkeypatch):
    cluster = make_cluster(3)
    writer = cluster.client()
    names = ["inline/%02d.dat" % i for i in range(12)]
    for i, name in enumerate(names):
        upload_records(writer, name, [b"r"] * (i + 1))
    client = cluster.client("client-1")  # knows no name, so it looks each one up
    client.members()
    started = count_threads(monkeypatch)
    sent = count_messages(monkeypatch, cluster)
    stream = client.resolve_stream(names)
    assert [f.records for f in stream.files] == list(range(1, len(names) + 1))
    assert started == []
    assert sent == {MessageKind.LOOKUP: len(names)}


@pytest.mark.parametrize("rtt_ms", [0.0, 1.0])
def test_a_fresh_clients_connects_to_the_members_overlap(make_cluster, monkeypatch, rtt_ms):
    cluster = make_cluster(4, profile=LinkProfile(default=rtt_ms))
    client = cluster.client()
    entry = client.entry_server
    others = sorted(set(cluster.nodes) - {entry})
    names = [scenarios.name_owned_by(cluster.ring, "ahead/%d.dat" % i, address)
             for i, address in enumerate(others)]
    barrier = threading.Barrier(len(others), timeout=5)
    held = []
    connect = cluster.network.connect

    def meeting(local, peer):
        if local == client.address and peer != entry:
            held.append(peer)
            if rtt_ms:
                barrier.wait()
        connect(local, peer)

    monkeypatch.setattr(cluster.network, "connect", meeting)
    started = count_threads(monkeypatch)
    sent = count_messages(monkeypatch, cluster)
    for name in names:  # one upload after another, each to its owner
        upload_records(client, name, [b"r"])
    # each member's connect met the others in flight, and no message was added
    assert sorted(held) == others
    assert sent == {MessageKind.MEMBERS: 1, MessageKind.STORE_DATA: len(names)}
    if not rtt_ms:  # every connect in the caller's thread
        assert started == []


def test_closing_a_client_stops_its_connect_ahead_lanes(make_cluster, monkeypatch):
    cluster = make_cluster(LANES + 3, profile=LinkProfile(default=1.0))
    client = cluster.client()
    entered, release = threading.Semaphore(0), threading.Event()
    connects = []
    connect = cluster.network.connect

    def held(local, peer):
        if local == client.address and peer != client.entry_server:
            connects.append(peer)
            entered.release()
            release.wait(5)
        connect(local, peer)

    monkeypatch.setattr(cluster.network, "connect", held)
    started = count_threads(monkeypatch)
    members = client.members()
    for _ in range(LANES):  # every lane holds a connect; two members wait
        assert entered.acquire(timeout=5)
    closing = threading.Thread(target=client.close)
    closing.start()
    while any(client.transport.has_channel(peer) for peer in connects):
        release.wait(0.001)  # until close() has dropped the connects in flight
    release.set()
    closing.join(5)
    assert not closing.is_alive()
    # close() returned after the executor's threads: none cached a channel
    # or went on to a queued member
    assert not any(thread.is_alive() for thread in started)
    assert len(connects) == LANES
    assert not any(client.transport.has_channel(peer) for peer in members)


def test_a_dead_member_fails_only_the_calls_that_need_it(make_cluster):
    cluster = make_cluster(3, profile=LinkProfile(default=1.0))
    client = cluster.client()
    dead = next(a for a in sorted(cluster.nodes) if a != client.entry_server)
    cluster.network.unlisten(dead)  # still on the ring, but refuses connects
    assert sorted(client.members()) == sorted(cluster.nodes)
    alive = next(a for a in sorted(cluster.nodes) if a not in (dead, client.entry_server))
    upload_records(client, scenarios.name_owned_by(cluster.ring, "alive.dat", alive), [b"r"])
    with pytest.raises(TransportError):
        upload_records(client, scenarios.name_owned_by(cluster.ring, "dead.dat", dead), [b"r"])
    with pytest.raises(TransportError):
        client.transport.open_channel(dead)


class Link(Transport):
    """A transport whose every call waits on a network, or none does."""

    def __init__(self, waits: bool):
        super().__init__("link")
        self.waits = waits

    def waits_on(self, peer):
        return self.waits


@pytest.mark.parametrize("waits", [False, True], ids=["no-wait", "wait"])
def test_overlap_keeps_order_bounds_lanes_and_raises_the_first_failure(waits):
    link = Link(waits)
    lanes = LANES
    barrier = threading.Barrier(lanes, timeout=5)
    lock = threading.Lock()
    running, taken, threads = [], [], set()  # calls in flight; results taken; callers
    in_flight, ahead = [], []  # per call: calls in flight with it; how far past the caller

    def half(n):
        with lock:
            running.append(n)
            threads.add(threading.current_thread())
            in_flight.append(len(running))
            ahead.append(n - len(taken))
        if waits and n < lanes:
            barrier.wait()  # breaks unless the first LANES calls are in flight together
        with lock:
            running.remove(n)
        if n in (lanes + 5, lanes + 7):
            raise ValueError(n)
        return n // 2

    def left_running():
        return [t for t in threads if t.is_alive() and t is not threading.current_thread()]

    with pytest.raises(ValueError) as failure:
        for result in link.overlap(["peer"], half, range(3 * lanes)):
            taken.append(result)
    assert failure.value.args == (lanes + 5,)
    assert taken == [n // 2 for n in range(lanes + 5)]
    assert max(in_flight) == (lanes if waits else 1)
    assert max(ahead) <= lanes
    assert (threading.current_thread() in threads) != waits
    assert running == []  # no call outlives the fan-out
    assert len(threads - {threading.current_thread()}) <= lanes  # the executor's threads
    results = link.overlap(["peer"], half, range(3 * lanes))
    assert next(results) == 0
    results.close()  # left early, it still waits for the calls in flight
    assert running == []
    assert list(link.overlap(["peer"], half, [])) == []
    link.close()  # which waits for the executor's threads
    assert left_running() == []


def test_concurrent_fan_outs_share_one_executor():
    link = Link(waits=True)
    lock = threading.Lock()
    running, served = [], set()

    def tagged(item):
        with lock:
            running.append(item)
            served.add(threading.current_thread())
        with lock:
            running.remove(item)
        return item

    def fan_out(caller):
        items = [(caller, n) for n in range(40)]
        return list(link.overlap(["peer"], tagged, items)) == items

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(16) as callers:
            assert all(callers.map(fan_out, range(16), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert running == [] and len(served) <= LANES  # one executor served all 16
    link.close()
    assert not any(thread.is_alive() for thread in served)


def test_a_call_that_close_cancels_raises_transport_error():
    link = Link(waits=True)
    entered, release = threading.Semaphore(0), threading.Event()

    def hold(n):
        entered.release()
        return release.wait(5)

    busy = threading.Thread(target=lambda: list(link.overlap(["peer"], hold, range(LANES))))
    busy.start()
    for _ in range(LANES):  # every thread of the executor holds a call
        assert entered.acquire(timeout=5)
    closing = threading.Thread(target=link.close)

    def queued():  # starts closing the link once the three calls are queued
        yield from range(3)
        closing.start()

    with pytest.raises(TransportError):
        list(link.overlap(["peer"], str, queued()))
    release.set()  # close() waits for the running calls, which then end
    closing.join(5)
    busy.join(5)
    assert not closing.is_alive() and not busy.is_alive()
    with pytest.raises(TransportError):
        list(link.overlap(["peer"], str, range(3)))


def test_concurrent_stores_and_stats_keep_every_header(make_cluster):
    cluster = make_cluster(3)
    writer, reader = cluster.client(), cluster.client("client-1")
    names = ["many/%02d.bin" % i for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(names)) as pool:
            stored = list(pool.map(lambda name: writer.upload(name.encode() * 3, name), names))
            stats = list(pool.map(reader.stat, names))
    finally:
        sys.setswitchinterval(interval)
    assert stored == [[cluster.ring.owner(name).address] for name in names]
    assert stats == [held_stat(cluster, name) for name in names]
    assert all(stat["size"] == 3 * len(name) for stat, name in zip(stats, names))
    assert sorted(reader.known) == names


# ------------------------------------------------------------------ lookup

def test_stat_after_locate_sends_no_stat(make_cluster, monkeypatch, tmp_path):
    cluster = make_cluster(3)
    client = cluster.client()
    upload_records(client, "st.dat", [b"one", b"two"])
    sent = count_messages(monkeypatch, cluster)
    client.locate("st.dat")
    assert client.stat("st.dat") == held_stat(cluster, "st.dat")
    client.download("st.dat", tmp_path / "st.dat")
    assert sent[MessageKind.LOOKUP] >= 1


def test_lookup_is_one_message_to_the_owner(make_cluster, monkeypatch):
    cluster = make_cluster(4)
    client = cluster.client()
    name = scenarios.name_owned_by(cluster.ring, "direct.dat", "node-3")
    upload_records(client, name, [b"one", b"two"])
    peers = []
    dispatch = cluster.network.dispatch

    def recorded(local, peer, request):
        peers.append((local, peer, MessageKind(request.kind)))
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", recorded)
    assert client.stat(name) == held_stat(cluster, name)
    assert peers == [(client.address, "node-3", MessageKind.LOOKUP)]


@pytest.mark.parametrize("change", ["kill", "add"])
def test_a_client_with_a_stale_ring_still_stores_and_reads(make_cluster, monkeypatch,
                                                           tmp_path, change):
    from sectorsphere.cluster import NodeSpec

    cluster = make_cluster(3, replica_target=2)
    client = cluster.client()
    # names that node-2 owns until it dies, or that node-9 owns once it joins
    moved = "node-2" if change == "kill" else "node-9"
    ring = cluster.ring if change == "kill" else cluster.ring.join("node-9")
    names = [scenarios.name_owned_by(ring, "stale/%d.dat" % i, moved) for i in range(4)]
    for name in names:
        upload_records(client, name, [name.encode()])
    cluster.replication_cycle()
    if change == "kill":
        cluster.kill("node-2")
    else:
        cluster.add_node(NodeSpec(name="node-9", address="node-9",
                                  data_dir=str(tmp_path / "node-9"),
                                  acl=frozenset({"client-0"})))
    assert all(cluster.ring.owner(name).address != client.owner_of(name) for name in names)
    sent = count_messages(monkeypatch, cluster, sender=client.address)
    fresh = [b"new-" + name.encode() for name in names]
    for name, data in zip(names, fresh):
        client.upload(data, name)
    for name, data in zip(names, fresh):
        assert client.stat(name)["size"] == len(data)
        assert client.download(name, tmp_path / "out.dat") == len(data)
        assert (tmp_path / "out.dat").read_bytes() == data
    assert list(client.iter_records(names)) == fresh
    # the dead owner's first refusal refreshes the ring; a live old owner
    # stores and forwards lookups, so the client never needs to ask
    assert sent[MessageKind.MEMBERS] == (1 if change == "kill" else 0)


def test_reannounce_sends_one_register_per_holder_and_owner(make_cluster, monkeypatch):
    cluster = make_cluster(4, replica_target=2)
    client = cluster.client()
    names = ["moved/%02d.dat" % i for i in range(24)]
    for name in names:
        upload_records(client, name, [name.encode()] * 2)
    cluster.replication_cycle()
    pairs = collections.Counter()
    dispatch = cluster.network.dispatch

    def counted(local, peer, request):
        if request.kind == MessageKind.REGISTER:
            pairs[local, peer] += 1
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", counted)
    cluster.kill("node-3")
    assert pairs and max(pairs.values()) == 1
    for name in names:
        client.forget(name)
        assert "node-3" not in client.locate(name)
        assert list(client.iter_records([name])) == [name.encode()] * 2


def test_a_register_lost_in_reannounce_is_sent_again_by_the_next_cycle(make_cluster,
                                                                       monkeypatch):
    cluster = make_cluster(4, replica_target=2)
    client = cluster.client()
    names = [scenarios.name_owned_by(cluster.ring, "lost/%02d.dat" % i, "node-3")
             for i in range(12)]
    for name in names:
        upload_records(client, name, [name.encode()] * 2)
    cluster.replication_cycle()
    lost = []
    dispatch = cluster.network.dispatch

    def lose_the_first_register_of_node_0(local, peer, request):
        if request.kind == MessageKind.REGISTER and local == "node-0" and not lost:
            lost.append(peer)
            raise TransportError("REGISTER lost")
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", lose_the_first_register_of_node_0)
    cluster.kill("node-3")  # its names move to one new owner, which node-0 never hears from
    new_owner = cluster.nodes[cluster.ring.owner(names[0]).address]
    assert lost == [new_owner.address]
    unheard = [name for name in names if name not in new_owner.registry]
    assert unheard and all(cluster.nodes["node-0"].holds(name) for name in unheard)
    cluster.replication_cycle()
    for name in names:
        client.forget(name)
        assert list(client.iter_records([name])) == [name.encode()] * 2


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
    assert sent[MessageKind.LOOKUP] >= 1


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


@pytest.mark.parametrize("rows", [1.0, True, "1"], ids=["float", "bool", "string"])
def test_a_row_count_that_is_not_an_int_is_refused(make_cluster, monkeypatch, rows):
    from sectorsphere.transport import reply

    cluster = make_cluster(2)
    client = cluster.client()
    home = client.transport.open_channel("node-0")
    with pytest.raises(IntegrityError):
        home.call(MessageKind.SHUFFLE_APPEND, {"job": "j", "bucket": 0, "rows": rows,
                                               "ordinal": 0, "attempt": 1},
                  RecordIndex.from_sizes([3]).to_bytes() + b"abc")
    assert cluster.nodes["node-0"].finalize_job("j", [1]) == []
    upload_records(client, "rows.dat", [b"abc"])
    dispatch = cluster.network.dispatch

    def bad_rows(local, peer, request):
        response = dispatch(local, peer, request)
        if request.kind == MessageKind.READ:
            header, body = unpack_payload(response.payload)
            response = reply(request, response.kind, {**header, "rows": rows}, body)
        return response

    monkeypatch.setattr(cluster.network, "dispatch", bad_rows)
    with pytest.raises(IntegrityError):
        list(client.iter_batches(["rows.dat"]))


def test_holder_refuses_reads_and_fetches_for_another_version(make_cluster):
    cluster = make_cluster(2)
    client = cluster.client()
    upload_records(client, "v.dat", [b"one", b"two"])
    stat = held_stat(cluster, "v.dat")
    channel = client.transport.open_channel(client.owner_of("v.dat"))
    with pytest.raises(StaleError):
        read_records_over(channel, "v.dat", [(0, 1)], {**stat, "records": 3})
    with pytest.raises(StaleError):
        fetch_file(channel, "v.dat", stat={**stat, "size": 99})
    with pytest.raises(StaleError):
        fetch_file(channel, "v.dat", stat={**stat, "indexed": False})
    assert list(read_records_over(channel, "v.dat", [(0, 2)], stat)[0]) == [
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
    assert client.locate("old.dat") == [owner]  # the upload's target, and no other holder
    assert list(client.iter_records(["old.dat"])) == new
    client.forget("old.dat")
    assert client.locate("old.dat")[0] == stale
    assert client.download("old.dat", tmp_path / "old.dat") == 21
    assert (tmp_path / "old.dat").read_bytes() == b"".join(new)
    assert list(client.iter_records(["old.dat"])) == new
