"""A job that loses one message gives the right output or raises JobError,
and a replication cycle that loses one REGISTER is made good by the next."""

import random

import pytest

from sectorsphere import sphere
from sectorsphere.benchmarks import check_sorted, terasort
from sectorsphere.errors import JobError, TransportError
from sectorsphere.records import RecordIndex
from sectorsphere.routing import name_owned_by
from sectorsphere.sphere import OutputMode, OutputSpec, SegmentLimits
from sectorsphere.wire import MessageKind, unpack_payload

KINDS = [MessageKind.SPE_RUN, MessageKind.SHUFFLE_APPEND, MessageKind.FINALIZE_JOB,
         MessageKind.REGISTER, MessageKind.READ, MessageKind.MEMBERS, MessageKind.LOOKUP]
# Each job runs from the client that uploaded its input, which has the
# input's holder and header cached, or from a second client, which looks
# the input up and asks for the members first.
RUNNERS = ("uploader", "reader")
# (job, runner, kind) -> occurrences lost, 1 and 2 unless the job sends
# fewer after the fault is armed: terasort asks for the members for its
# destinations and in each of its two jobs, the identity shuffle once in
# its one job, and the reader once more to learn the ring; only the reader
# sends a LOOKUP, and no job sends a REGISTER, since each output's writer
# owns its name
OCCURRENCES = {("terasort", "uploader", MessageKind.MEMBERS): (1, 2, 3),
               ("terasort", "reader", MessageKind.MEMBERS): (1, 2, 3, 4),
               ("identity-shuffle", "uploader", MessageKind.MEMBERS): (1,),
               ("identity-shuffle", "reader", MessageKind.MEMBERS): (1, 2),
               **{(job, runner, MessageKind.LOOKUP): (1,) if runner == "reader" else ()
                  for job in ("terasort", "identity-shuffle") for runner in RUNNERS},
               **{(job, runner, MessageKind.REGISTER): ()
                  for job in ("terasort", "identity-shuffle") for runner in RUNNERS}}


def upload_records(client, name, records):
    client.upload(b"".join(records), name, RecordIndex.from_sizes(map(len, records)))


def read_back(client, stream) -> list[bytes]:
    return [record for f in stream.files
            for record in client.read_records(f.name, 0, f.records)]


def run_terasort(uploader, client):
    """3000 100-byte records sorted by key; the output in bucket order."""
    rng = random.Random(31)
    records = [rng.randbytes(100) for _ in range(3000)]
    upload_records(uploader, "lost/tera.dat", records)

    def run():
        out, _ = terasort(client, ["lost/tera.dat"], job_id="lost-tera")
        got = read_back(client, out)
        assert check_sorted(got)
        return got

    return records, run


def run_identity_shuffle(uploader, client):
    """600 records shuffled by first byte to three homes in four segments."""
    rng = random.Random(32)
    records = [rng.randbytes(16) for _ in range(600)]
    upload_records(uploader, "lost/shuffle.dat", records)
    sphere.register_bucket("lost-mod3", lambda record, params: record[0] % 3)
    spec = OutputSpec(mode=OutputMode.SHUFFLE, bucket="lost-mod3",
                      destinations=tuple(sorted(uploader.members())))

    def run():
        out, _ = client.run_job(["lost/shuffle.dat"], "identity", output=spec,
                                limits=SegmentLimits(2000, 3000), job_id="lost-shuffle")
        return read_back(client, out)

    return records, run


JOBS = {"terasort": run_terasort, "identity-shuffle": run_identity_shuffle}
CASES = [pytest.param(job, runner, kind, side, occurrence,
                      id="%s-%s-%s-%s-%d" % (job, runner, kind.name, side, occurrence))
         for job in sorted(JOBS) for runner in RUNNERS for kind in KINDS
         for side in ("request", "reply")
         for occurrence in OCCURRENCES.get((job, runner, kind), (1, 2))]


def job_clients(cluster, runner):
    """(the client that uploads the input, the client that runs the job)."""
    uploader = cluster.client()
    return uploader, uploader if runner == "uploader" else cluster.client("client-1")


def lose(monkeypatch, cluster, kind, side, occurrence) -> list:
    """From now on, lose the request or the reply of the occurrence-th
    message of `kind` sent over the cluster's network. The returned list
    gets one entry when that message is lost."""
    dispatch = cluster.network.dispatch
    seen, lost = [], []

    def lossy(local, peer, request):
        if request.kind != kind:
            return dispatch(local, peer, request)
        seen.append(peer)
        if len(seen) != occurrence:
            return dispatch(local, peer, request)
        lost.append(peer)
        if side == "reply":
            dispatch(local, peer, request)
        raise TransportError("%s %s lost" % (kind.name, side))

    monkeypatch.setattr(cluster.network, "dispatch", lossy)
    return lost


@pytest.mark.parametrize("job, runner, kind, side, occurrence", CASES)
def test_one_lost_message_gives_the_right_output_or_job_error(make_cluster, monkeypatch, job,
                                                              runner, kind, side, occurrence):
    cluster = make_cluster(3)
    records, run = JOBS[job](*job_clients(cluster, runner))
    lost = lose(monkeypatch, cluster, kind, side, occurrence)
    try:
        got = run()
    except JobError:
        got = None
    assert len(lost) == 1  # the case reaches the message it loses
    assert got is None or sorted(got) == sorted(records)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_a_fault_free_job_sends_no_register(make_cluster, monkeypatch, job):
    cluster = make_cluster(3)
    client = cluster.client()
    records, run = JOBS[job](client, client)
    sent = []
    dispatch = cluster.network.dispatch

    def counted(local, peer, request):
        sent.append(MessageKind(request.kind))
        return dispatch(local, peer, request)

    monkeypatch.setattr(cluster.network, "dispatch", counted)
    assert sorted(run()) == sorted(records)
    assert MessageKind.FINALIZE_JOB in sent and MessageKind.REGISTER not in sent


@pytest.mark.parametrize("side, occurrence",
                         [(side, occurrence) for side in ("request", "reply")
                          for occurrence in (1, 2)])
def test_one_lost_register_in_a_replication_cycle_is_made_good_by_the_next(
        make_cluster, monkeypatch, side, occurrence):
    """A replica's holder, never its name's owner, is the one sender of
    REGISTER left: its store fails either way, and the next cycle brings
    every name to the target with each listed holder serving the file."""
    cluster = make_cluster(4, replica_target=2)
    client = cluster.client()
    names = ["lost/replica-%d.dat" % i for i in range(6)]
    for name in names:
        upload_records(client, name, [name.encode()] * 2)
    lost = lose(monkeypatch, cluster, MessageKind.REGISTER, side, occurrence)
    pushed = cluster.replication_cycle()
    assert len(lost) == 1  # the case reaches the message it loses
    assert len([a for a in pushed if "dest" in a]) == len(names) - 1
    cluster.replication_cycle()
    assert cluster.location_counts(names) == dict.fromkeys(names, 2)
    for name in names:
        client.forget(name)
        for holder in client.locate(name):
            batch, _ = cluster.nodes[holder].read_local(name, 0, 2)
            assert list(batch) == [name.encode()] * 2


def test_a_home_that_stops_answering_after_its_first_batch_fails_the_job(make_cluster,
                                                                         monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    _, run = run_identity_shuffle(client, client)
    home = next(a for a in sorted(cluster.nodes) if a != client.entry_server
                and not cluster.nodes[a].holds("lost/shuffle.dat"))
    dispatch = cluster.network.dispatch
    taken = []  # batches sent to the home at once may land with its first

    def first_batch_then_silence(local, peer, request):
        response = dispatch(local, peer, request)
        if request.kind == MessageKind.SHUFFLE_APPEND and peer == home:
            taken.append(peer)
            cluster.network.unlisten(home)
        return response

    monkeypatch.setattr(cluster.network, "dispatch", first_batch_then_silence)
    with pytest.raises(JobError):
        run()
    assert taken and set(taken) == {home}


def test_a_lost_local_run_reply_leaves_the_attempt_output_under_its_writer_name(
        make_cluster, monkeypatch):
    """A LOCAL-mode segment whose SPE_RUN reply is lost is retried on
    another node, which writes the output under a name it owns. The lost
    attempt's output stays stored and registered at its writer under that
    writer's name, and no output of the job names it."""
    cluster = make_cluster(3)
    client = cluster.client()
    records = [b"lost-%03d" % i for i in range(120)]
    upload_records(client, "lost/local.dat", records)
    dropped = []
    dispatch = cluster.network.dispatch

    def drop_first_run_reply(local, peer, request):
        response = dispatch(local, peer, request)
        if request.kind == MessageKind.SPE_RUN and not dropped:
            dropped.append((unpack_payload(request.payload)[0]["ordinal"], peer))
            raise TransportError("SPE_RUN reply lost")
        return response

    monkeypatch.setattr(cluster.network, "dispatch", drop_first_run_reply)
    out, report = client.run_job(["lost/local.dat"], "identity",
                                 output=OutputSpec(mode=OutputMode.LOCAL),
                                 limits=SegmentLimits(200, 200), job_id="lost-local")
    (ordinal, writer), = dropped
    assert report.ok and read_back(client, out) == records
    retried, = [f for f in report.output_files if f["name"].startswith(
        sphere.seg_file_name("lost-local", ordinal))]
    assert retried["target"] != writer
    left = {(address, name) for address, node in cluster.nodes.items()
            for name in node.files if name.startswith("lost-local/")} - {
        (f["target"], f["name"]) for f in report.output_files}
    orphan = name_owned_by(cluster.ring, sphere.seg_file_name("lost-local", ordinal), writer)
    assert left == {(writer, orphan)} and orphan not in out.names
    assert cluster.nodes[writer].lookup(orphan)[0] == [writer]


def test_a_job_over_an_input_another_client_rewrote_fails_and_its_rerun_reads_the_new_one(
        make_cluster):
    """The uploader's cached header of its input is stale once another
    client rewrites the input with another record count: every read of the
    job refuses it, the job raises JobError and forgets the name, and the
    rerun looks the name up and returns the new records."""
    cluster = make_cluster(3, acl=("client-0", "client-1"))
    client, other = cluster.client(), cluster.client("client-1")
    upload_records(client, "lost/rewritten.dat", [b"old-%03d" % i for i in range(60)])
    new = [b"new-%03d" % i for i in range(90)]
    upload_records(other, "lost/rewritten.dat", new)

    def run():
        return client.run_job(["lost/rewritten.dat"], "identity",
                              output=OutputSpec(mode=OutputMode.CLIENT),
                              limits=SegmentLimits(200, 200), job_id="rewritten")[1]

    with pytest.raises(JobError) as failure:
        run()
    assert failure.value.failed_segments and all(
        "'records': 90" in f["error"] and "not {'records': 60" in f["error"]
        for f in failure.value.failed_segments)  # each holder refused the old header
    assert "lost/rewritten.dat" not in client.known
    assert run().records == new
