"""A job that loses one message gives the right output or raises JobError."""

import random

import pytest

from sectorsphere import sphere
from sectorsphere.benchmarks import check_sorted, terasort
from sectorsphere.errors import JobError, TransportError
from sectorsphere.records import RecordIndex
from sectorsphere.sphere import OutputMode, OutputSpec, SegmentLimits
from sectorsphere.wire import MessageKind

KINDS = [MessageKind.SPE_RUN, MessageKind.SHUFFLE_APPEND, MessageKind.FINALIZE_JOB,
         MessageKind.REGISTER, MessageKind.READ, MessageKind.MEMBERS]
# (job, kind) -> occurrences lost, 1 and 2 unless the job sends fewer after
# the fault is armed: terasort asks for the members for its destinations and
# in each of its two jobs, the identity shuffle once in its one job
OCCURRENCES = {("terasort", MessageKind.MEMBERS): (1, 2, 3),
               ("identity-shuffle", MessageKind.MEMBERS): (1,)}


def upload_records(client, name, records):
    client.upload(b"".join(records), name, RecordIndex.from_sizes(map(len, records)))


def read_back(client, stream) -> list[bytes]:
    return [record for f in stream.files
            for record in client.read_records(f.name, 0, f.records)]


def run_terasort(client):
    """3000 100-byte records sorted by key; the output in bucket order."""
    rng = random.Random(31)
    records = [rng.randbytes(100) for _ in range(3000)]
    upload_records(client, "lost/tera.dat", records)

    def run():
        out, _ = terasort(client, ["lost/tera.dat"], job_id="lost-tera")
        got = read_back(client, out)
        assert check_sorted(got)
        return got

    return records, run


def run_identity_shuffle(client):
    """600 records shuffled by first byte to three homes in four segments."""
    rng = random.Random(32)
    records = [rng.randbytes(16) for _ in range(600)]
    upload_records(client, "lost/shuffle.dat", records)
    sphere.register_bucket("lost-mod3", lambda record, params: record[0] % 3)
    spec = OutputSpec(mode=OutputMode.SHUFFLE, bucket="lost-mod3",
                      destinations=tuple(sorted(client.members())))

    def run():
        out, _ = client.run_job(["lost/shuffle.dat"], "identity", output=spec,
                                limits=SegmentLimits(2000, 3000), job_id="lost-shuffle")
        return read_back(client, out)

    return records, run


JOBS = {"terasort": run_terasort, "identity-shuffle": run_identity_shuffle}
CASES = [pytest.param(job, kind, side, occurrence,
                      id="%s-%s-%s-%d" % (job, kind.name, side, occurrence))
         for job in sorted(JOBS) for kind in KINDS for side in ("request", "reply")
         for occurrence in OCCURRENCES.get((job, kind), (1, 2))]


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


@pytest.mark.parametrize("job, kind, side, occurrence", CASES)
def test_one_lost_message_gives_the_right_output_or_job_error(make_cluster, monkeypatch,
                                                              job, kind, side, occurrence):
    cluster = make_cluster(3)
    client = cluster.client()
    records, run = JOBS[job](client)
    lost = lose(monkeypatch, cluster, kind, side, occurrence)
    try:
        got = run()
    except JobError:
        got = None
    assert len(lost) == 1  # the case reaches the message it loses
    assert got is None or sorted(got) == sorted(records)


def test_a_home_that_stops_answering_after_its_first_batch_fails_the_job(make_cluster,
                                                                         monkeypatch):
    cluster = make_cluster(3)
    client = cluster.client()
    _, run = run_identity_shuffle(client)
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
