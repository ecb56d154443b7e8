"""Stream compute engine.

A job applies a registered operator to every record of a stream of
indexed files. The stream is cut into contiguous data segments, segments
are scheduled onto per-node processing elements with locality preference,
each element runs the accept / read / apply / write loop, and outputs are
routed back to the data's origin, written locally, shuffled by bucket to
each bucket's one home node (see run_job), or returned to the client in
the segment's SPE_RUN reply. A stored output is named so that the node
holding it owns the name on the ring (see seg_file_name).

Segments stay columnar through the engine. A segment is read as one
RecordBatch (its bytes plus an (n, 2) entry array); a segment-scope
operator gets that batch whole, and record-scope output is packed into a
batch once. In a shuffle the operator gives every output record its
bucket id, as in Sphere; the engine groups the batch by bucket with one
stable argsort and sends slices of it, so no step of the engine handles
records one Python object at a time unless a record-scope operator asks
for it.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
import time
import uuid
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import JobError, NotFoundError, SectorError
from .fileops import first_holder, push_file, read_records_over, split_rows
from .records import ENTRY_SIZE, RecordBatch, RecordIndex
from .routing import name_owned_by
from .scheduler import Scheduler, SpeHandle
from .wire import MessageKind

log = logging.getLogger(__name__)

SHUFFLE_BATCH_BYTES = 2 * 1024 * 1024
CLIENT_REPLY_BYTES = 1024 * 1024  # most output one segment returns in its reply
JOB_TIMEOUT = 600.0  # seconds a job waits for one segment's SPE_RUN reply


# ----------------------------------------------------------------- registry

_OPERATORS: dict[str, tuple] = {}
_BUCKET_FNS: dict[str, object] = {}


def register_operator(name: str, fn, scope: str = "record") -> None:
    """Register a user-defined function.

    Record scope: fn(record, params) -> iterable of output records (or one
    record, or None), called once per record; the segment acks its
    progress every tenth of its rows. Segment scope: fn(records, params),
    called once per segment with the segment as a RecordBatch (iterating
    it yields the records), returns a RecordBatch or an iterable of output
    records, and acks once.

    In a shuffle the operator gives every output record its bucket id: it
    returns a RecordBatch that carries buckets (RecordBatch.with_buckets),
    or (bucket, record) pairs where it would return records. A shuffle
    segment whose operator gives no bucket ids fails.
    """
    if scope not in ("record", "segment"):
        raise ValueError("operator scope must be 'record' or 'segment'")
    _OPERATORS[name] = (fn, scope)


def register_bucket(name: str, fn) -> None:
    """Register a reference bucket function fn(record, params). No job calls
    one; kept for ssbench/tracing.py and its tests only, until ROADMAP item
    4 deletes this registry and its key-range and window-index entries."""
    _BUCKET_FNS[name] = fn


def get_operator(name: str):
    try:
        return _OPERATORS[name]
    except KeyError:
        raise NotFoundError("operator %r is not registered" % name)


def get_bucket_fn(name: str):
    """A registered reference bucket function; see register_bucket."""
    try:
        return _BUCKET_FNS[name]
    except KeyError:
        raise NotFoundError("bucket function %r is not registered" % name)


def operator_registered(name: str) -> bool:
    return name in _OPERATORS


@functools.lru_cache(maxsize=64)
def decoded_params(params: bytes, decode):
    """decode(params), once per distinct pair; the result is shared, so
    callers must not modify it."""
    return decode(params)


register_operator("identity", lambda record, params: (record,))
register_operator("one-per-record", lambda record, params: (b"\x01",))


# -------------------------------------------------------------------- types

@dataclass(frozen=True)
class StreamFile:
    """A stored file: its name, its STAT header (see fileops.file_header),
    which the job's reads send as `expect`, and its holders, nearest first."""
    name: str
    stat: dict
    locations: tuple[str, ...]

    @property
    def records(self) -> int:
        return self.stat["records"]

    @property
    def size(self) -> int:
        return self.stat["size"]


@dataclass(frozen=True)
class Stream:
    files: tuple[StreamFile, ...]

    @property
    def total_size(self) -> int:
        return sum(f.size for f in self.files)

    @property
    def total_records(self) -> int:
        return sum(f.records for f in self.files)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.files)


@dataclass(frozen=True)
class SegmentLimits:
    s_min: int
    s_max: int

    def __post_init__(self):
        if not (0 < self.s_min <= self.s_max):
            raise ValueError("need 0 < s_min <= s_max, got (%d, %d)"
                             % (self.s_min, self.s_max))


DEFAULT_LIMITS = SegmentLimits(1, 8 * 1024 * 1024)
WHOLE_FILE_LIMITS = SegmentLimits(2 ** 62, 2 ** 62)


@dataclass(frozen=True)
class DataSegment:
    file: str
    offset: int
    rows: int
    params: bytes = b""
    ordinal: int = 0
    locations: tuple[str, ...] = ()


class OutputMode:
    ORIGIN = "origin"
    LOCAL = "local"
    SHUFFLE = "shuffle"
    CLIENT = "client"


@dataclass(frozen=True)
class OutputSpec:
    mode: str = OutputMode.LOCAL
    destinations: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in (OutputMode.ORIGIN, OutputMode.LOCAL, OutputMode.SHUFFLE,
                             OutputMode.CLIENT):
            raise ValueError("unknown output mode %r" % self.mode)
        if self.mode == OutputMode.SHUFFLE and not self.destinations:
            raise ValueError("shuffle output needs a destination list")

    def to_header(self) -> dict:
        return {"mode": self.mode, "destinations": list(self.destinations)}

    @classmethod
    def from_header(cls, header: dict) -> "OutputSpec":
        unknown = sorted(set(header) - {"mode", "destinations"})
        if unknown:
            raise ValueError("unknown output key(s) %s" % ", ".join(map(repr, unknown)))
        return cls(mode=header["mode"], destinations=tuple(header.get("destinations") or ()))


def seg_file_name(job: str, ordinal: int) -> str:
    """The base of segment `ordinal`'s output name in LOCAL and ORIGIN mode.
    The stored name is this base salted by routing.name_owned_by so that
    the node that holds the output owns it on the ring; read it from the
    segment's report."""
    return "%s/seg_%05d.dat" % (job, ordinal)


def bucket_file_name(job: str, bucket: int) -> str:
    """The base of a shuffle bucket's file name. Its home stores the bucket
    under this base salted by routing.name_owned_by so that the home owns
    it on the ring; read the name, and the bucket, from the FINALIZE_JOB
    reply."""
    return "%s/bucket_%05d.dat" % (job, bucket)


# ------------------------------------------------------------- segmentation

def segment_stream(stream: Stream, n_spe: int, limits: SegmentLimits = DEFAULT_LIMITS,
                   params: bytes = b"") -> list[DataSegment]:
    """Cut a stream into per-file contiguous segments.

    The byte target per segment is S/N clamped into [s_min, s_max]; each
    file is tiled exactly with no overlap, converting the byte target to a
    record count through the file's mean record size. Segments never span
    files; the last segment of a file may be short. A file without an index
    is one record, so it is one segment.
    """
    if n_spe < 1:
        raise ValueError("need at least one processing element")
    if not stream.files:
        raise SectorError("cannot segment an empty stream")
    target = target_segment_bytes(stream.total_size, n_spe, limits)
    segments: list[DataSegment] = []
    ordinal = 0
    for f in stream.files:
        if f.records == 0:
            continue
        mean = f.size / f.records
        rows_per = max(1, math.ceil(target / mean)) if mean > 0 else f.records
        for offset in range(0, f.records, rows_per):
            segments.append(DataSegment(
                file=f.name, offset=offset,
                rows=min(rows_per, f.records - offset),
                params=params, ordinal=ordinal,
                locations=tuple(f.locations)))
            ordinal += 1
    return segments


def target_segment_bytes(total_size: int, n_spe: int, limits: SegmentLimits) -> float:
    return min(max(total_size / n_spe, limits.s_min), limits.s_max)


# ------------------------------------------------------------ worker (SPE)

class SpeHost:
    """Per-node execution host. Each segment a job sends runs through the
    four-step loop in the thread that delivered it, so a node runs as many
    segments at once as the job has SPEs on it (run_job's spe_per_node)."""

    def __init__(self, node):
        self.node = node

    def run_segment(self, origin: str, header: dict) -> tuple[dict, bytes]:
        """The segment's report, and the body of its SPE_RUN reply: in
        client mode the report's `rows` .idx entries of the output, then its
        records back to back, as in a READ reply; else empty."""
        segment = DataSegment(
            file=header["file"], offset=header["offset"], rows=header["rows"],
            params=bytes.fromhex(header.get("params", "")),
            ordinal=header["ordinal"],
            locations=tuple(header.get("locations", ())))
        started = time.monotonic()
        report, body = self._execute(header["job"], segment, header["operator"],
                                     OutputSpec.from_header(header["output"]),
                                     header.get("attempt", 1), header.get("expect"))
        report["duration"] = time.monotonic() - started
        report["node"] = self.node.address
        report["ordinal"] = segment.ordinal
        return report, body

    def _execute(self, job: str, segment: DataSegment, operator_name: str,
                 output: OutputSpec, attempt: int,
                 expect: dict | None) -> tuple[dict, bytes]:
        node = self.node
        fn, scope = get_operator(operator_name)

        # step 2: read the segment as one batch of the version that the
        # file's header `expect` describes, locally if held, else from the
        # first other holder that serves it
        if node.holds(segment.file):
            source = node.address
            records, _ = node.read_local(segment.file, segment.offset, segment.rows,
                                         expect=expect)
        else:
            source, (records, _) = first_holder(
                node.transport, [a for a in segment.locations if a != node.address],
                lambda channel: read_records_over(
                    channel, segment.file, [(segment.offset, segment.rows)], expect))

        # step 3: apply the operator into one output batch, acking progress
        # in the segment's report
        acks: list[int] = []
        shuffle = output.mode == OutputMode.SHUFFLE
        try:
            if scope == "segment":
                out = fn(records, segment.params)
                acks.append(len(records))
            else:
                out = []
                every = max(1, segment.rows // 10)
                for i, record in enumerate(records, 1):
                    result = fn(record, segment.params)
                    if isinstance(result, (bytes, bytearray)):
                        out.append(result)
                    elif result is not None:
                        out.extend(result)
                    if i % every == 0 or i == len(records):
                        acks.append(i)
            if not isinstance(out, RecordBatch):
                out = _packed(() if out is None else out, shuffle)
            if shuffle and out.buckets is None:
                raise SectorError("operator %r gives no bucket ids for a shuffle" % operator_name)
        except Exception as exc:
            log.warning("operator %r failed on segment %d of %s: %s",
                        operator_name, segment.ordinal, segment.file, exc)
            return _failed(segment, acks, str(exc)), b""

        # step 4: final acknowledgment, then write results where they belong
        report = {"status": "ok", "rows": segment.rows, "acks": acks,
                  "final_ack": segment.rows, "outputs": [], "produced": len(out)}
        if output.mode != OutputMode.CLIENT:
            report["outputs"] = self._write_outputs(job, segment, out, output, source, attempt)
            return report, b""
        data, index = out.pack()
        body = index.to_bytes() + data
        if len(body) > CLIENT_REPLY_BYTES:
            return _failed(segment, acks, "segment %d returns %d bytes, over the %d a "
                           "reply carries" % (segment.ordinal, len(body),
                                              CLIENT_REPLY_BYTES)), b""
        report["rows"] = len(index)
        return report, body

    def _write_outputs(self, job: str, segment: DataSegment, out: RecordBatch,
                       output: OutputSpec, source: str, attempt: int) -> list[dict]:
        node = self.node
        if output.mode == OutputMode.SHUFFLE:
            self._send_shuffle(job, TaggedRecords(out), output.destinations,
                               segment.ordinal, attempt)
            return []
        if not len(out):
            return []
        target = source if output.mode == OutputMode.ORIGIN else node.address
        name = name_owned_by(node.ring, seg_file_name(job, segment.ordinal), target)
        data, index = out.pack()
        # registered where it is written, since the target owns the name
        if target == node.address:
            stat = node.store_file(node.address, name, data, index, internal=True)
        else:
            stat = push_file(node.transport.open_channel(target), name, data,
                             index.to_bytes(), internal=True)
        return [{"name": name, "target": target, "stat": stat}]

    def _send_shuffle(self, job: str, tagged: "TaggedRecords", homes,
                      ordinal: int, attempt: int) -> None:
        """Send each bucket's records, in output order, to its home
        homes[bucket % len(homes)] in batches cut after the record that brings
        a batch to SHUFFLE_BATCH_BYTES, each record counting its bytes and its
        ENTRY_SIZE index entry, tagged with the ordinal and attempt. A batch
        travels in the READ layout: its records' index entries, then their
        bytes. Each home's batches go in order, the homes side by side on
        the node's transport (Transport.overlap) over links that wait; a
        batch that is not taken fails the attempt."""
        if not len(tagged.batch):
            return
        order = np.argsort(tagged.batch.buckets, kind="stable")
        grouped = tagged.batch.take(order)
        buckets, sizes = grouped.buckets, grouped.sizes
        ends = np.cumsum(sizes, dtype=np.int64)  # end of each record in grouped.data
        weights = ends + ENTRY_SIZE * np.arange(1, len(ends) + 1)  # ends, entries included
        firsts = np.flatnonzero(np.diff(buckets)) + 1
        body = memoryview(grouped.data)
        sends: dict[str, list[tuple]] = {}
        for lo, hi in zip([0, *firsts.tolist()], [*firsts.tolist(), len(buckets)]):
            bucket = int(buckets[lo])
            home = homes[bucket % len(homes)]
            while lo < hi:
                begin = int(ends[lo - 1]) if lo else 0
                cut = begin + ENTRY_SIZE * lo + SHUFFLE_BATCH_BYTES
                stop = min(hi, int(np.searchsorted(weights, cut)) + 1)
                sends.setdefault(home, []).append(
                    (bucket, stop - lo, RecordIndex.from_sizes(sizes[lo:stop]).to_bytes()
                     + body[begin:int(ends[stop - 1])]))
                lo = stop

        def send(home: str) -> None:
            channel = self.node.transport.open_channel(home)
            for bucket, rows, batch in sends[home]:
                channel.call(MessageKind.SHUFFLE_APPEND,
                             {"job": job, "bucket": bucket, "rows": rows,
                              "ordinal": ordinal, "attempt": attempt}, batch)

        list(self.node.transport.overlap(sends, send, sends))


def _failed(segment: DataSegment, acks: list[int], error: str) -> dict:
    return {"status": "failed", "error": error, "rows": segment.rows,
            "acks": acks, "outputs": []}


class TaggedRecords:
    """A shuffle's output batch with its bucket ids; iterating yields
    (bucket, record) pairs. Kept as _send_shuffle's third argument only for
    ssbench/tracing.py, until ROADMAP item 4 deletes it."""

    def __init__(self, batch: RecordBatch):
        self.batch = batch

    def __iter__(self):
        return zip(self.batch.buckets.tolist(), self.batch)


def _packed(produced, shuffle: bool) -> RecordBatch:
    """An operator's output as one batch: in a shuffle, (bucket, record)
    pairs give the batch its bucket ids; records give it none."""
    produced = produced if isinstance(produced, (list, tuple)) else list(produced)
    if shuffle and all(isinstance(pair, tuple) and len(pair) == 2 for pair in produced):
        buckets, records = zip(*produced) if produced else ((), ())
        return RecordBatch.from_records(records).with_buckets(buckets)
    return RecordBatch.from_records(produced)


# --------------------------------------------------------------- job client

@dataclass
class JobReport:
    job_id: str
    segments: list[dict] = field(default_factory=list)
    events: list = field(default_factory=list)
    output_files: list[dict] = field(default_factory=list)
    records: list[bytes] = field(default_factory=list)  # client mode's output
    node_seconds: dict = field(default_factory=dict)
    failed: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed


def run_job(session, stream, operator_name: str, params: bytes = b"",
            output: OutputSpec = OutputSpec(), limits: SegmentLimits = DEFAULT_LIMITS,
            job_id: str | None = None, spe_per_node: int = 1) -> tuple[Stream, JobReport]:
    """Apply a registered operator to every record of the stream, a Stream
    or the names of stored files, exactly once. Each node runs up to
    spe_per_node of the job's segments at once: the job has one worker
    thread per SPE, each sending its segments one after another, never
    capped by the transport's executor: a worker with nothing local waits
    for an idle worker on a replica node.

    Returns the output stream (files registered in storage) and the job
    report. Failed segments are retried once on a different node before
    the whole job raises. In client mode the stream is empty and the
    report's `records` holds the output, segment by segment in ordinal
    order, each from the attempt that completed it.

    A shuffle's homes, fixed at the start, are the destinations in the
    member list. A batch that its home does not take fails the attempt;
    each home indexes only the batches of the attempt that completed each
    segment. The homes are finalized side by side on the session's
    transport (Transport.overlap), and a home that cannot be finalized
    fails the job.

    Each segment is read against its file's STAT header in the stream,
    which a holder of another version refuses with StaleError. A job that
    raises JobError makes the session forget its inputs, so that a rerun
    looks them up.
    """
    if not operator_registered(operator_name):
        raise JobError("operator %r is not registered" % operator_name)
    if not isinstance(stream, Stream):
        stream = session.resolve_stream(stream)
    try:
        return _run_job(session, stream, operator_name, params, output, limits, job_id,
                        spe_per_node)
    except JobError:
        for name in stream.names:
            session.forget(name)
        raise


def _run_job(session, stream: Stream, operator_name: str, params: bytes, output: OutputSpec,
             limits: SegmentLimits, job_id: str | None,
             spe_per_node: int) -> tuple[Stream, JobReport]:
    job_id = job_id or "job-%s" % uuid.uuid4().hex[:10]
    nodes = session.members()
    if output.mode == OutputMode.SHUFFLE:
        homes = tuple(d for d in output.destinations if d in nodes)
        if not homes:
            raise JobError("no shuffle destination is a member: %s" % (output.destinations,))
        output = replace(output, destinations=homes)
    spes = [SpeHandle(node=n, slot=slot) for n in nodes for slot in range(spe_per_node)]
    segments = segment_stream(stream, len(spes), limits, params)
    headers = {f.name: f.stat for f in stream.files}
    report = JobReport(job_id=job_id)
    started = time.monotonic()

    sched = Scheduler(segments, spes)
    reports_lock = threading.Lock()
    returned: dict[int, RecordBatch] = {}  # client mode: ordinal -> its records
    committed = [0] * len(segments)  # ordinal -> the attempt that completed it

    def worker(spe: SpeHandle, task):
        task = task or sched.next_for(spe)
        while task is not None:
            header = {
                "job": job_id, "ordinal": task.segment.ordinal, "attempt": task.attempts,
                "file": task.segment.file, "offset": task.segment.offset,
                "rows": task.segment.rows, "params": task.segment.params.hex(),
                "locations": list(task.segment.locations),
                "expect": headers[task.segment.file],
                "operator": operator_name, "output": output.to_header(),
            }
            try:
                channel = session.transport.open_channel(spe.node)
                result, body = channel.call(MessageKind.SPE_RUN, header,
                                            timeout=JOB_TIMEOUT)
                if output.mode == OutputMode.CLIENT and result.get("status") == "ok":
                    entries, data = split_rows(result.pop("rows"), body, "segment %d"
                                               % task.segment.ordinal)
                    batch = RecordBatch(bytes(data), RecordIndex.from_sizes(entries[:, 1]))
            except Exception as exc:  # a worker must never die mid-job
                result = {"status": "failed", "error": str(exc),
                          "node": spe.node, "ordinal": task.segment.ordinal,
                          "acks": [], "outputs": [], "duration": 0.0}
            with reports_lock:
                result.setdefault("node", spe.node)
                result["attempt"] = task.attempts
                report.segments.append(result)
                report.node_seconds[spe.node] = (
                    report.node_seconds.get(spe.node, 0.0)
                    + float(result.get("duration", 0.0)))
            if result.get("status") == "ok":
                if output.mode == OutputMode.CLIENT:
                    returned[task.segment.ordinal] = batch
                committed[task.segment.ordinal] = task.attempts
                sched.complete(spe, task)
            else:
                sched.fail(spe, task, result.get("error", "segment failed"))
            task = sched.next_for(spe)

    # one thread per SPE, never fewer: a worker with nothing local waits
    # for an idle worker on a replica node. Each SPE takes its first
    # segment here, before any worker runs, so that a worker started first
    # cannot take every segment before the others start.
    threads = [threading.Thread(target=worker, args=(spe, sched.try_next(spe)), daemon=True)
               for spe in spes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    report.events = sched.events
    report.failed = sched.failures
    report.records = [record for ordinal in sorted(returned)
                      for record in returned[ordinal]]

    output_files: list[dict] = []
    if output.mode == OutputMode.SHUFFLE:
        def finalize(home: str) -> dict:
            try:
                return session.transport.open_channel(home).call(
                    MessageKind.FINALIZE_JOB, {"job": job_id, "committed": committed})[0]
            except SectorError as exc:
                raise JobError("cannot finalize %s on %s: %s" % (job_id, home, exc)) from exc

        homes = output.destinations
        for home, result in zip(homes, session.transport.overlap(homes, finalize, homes)):
            output_files.extend({**info, "target": home} for info in result["files"])
        output_files.sort(key=lambda f: f["bucket"])
    else:
        for seg_report in sorted(report.segments, key=lambda r: r["ordinal"]):
            if seg_report.get("status") == "ok":
                output_files.extend(seg_report["outputs"])
    report.output_files = output_files
    report.elapsed = time.monotonic() - started
    out_stream = Stream(files=tuple(
        StreamFile(f["name"], f["stat"], (f["target"],)) for f in output_files))
    for f in out_stream.files:
        # the holder's own header, so reads by name need no LOOKUP; it
        # replaces what a run under the same job_id left cached
        session.remember(f)

    if report.failed:
        raise JobError("job %s failed on %d segment(s): %s"
                       % (job_id, len(report.failed),
                          sorted(f["ordinal"] for f in report.failed)),
                       failed_segments=report.failed)
    return out_stream, report
