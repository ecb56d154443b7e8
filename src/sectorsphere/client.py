"""Client library.

Access follows the four-step protocol: connect to a known entry server,
resolve replica locations through the server network's routing layer,
open a (cached) data channel to a holder, then transfer. The entry server
gives only the member list: the client builds the ring from it, and sends
each upload and LOOKUP straight to the name's owner. The transport
connects ahead to the members (Transport.connect_ahead), so that step 3
waits at most for the one connect in flight to its own peer. When the entry
cannot be reached, the other members of the last ring give the list.
When an owner cannot be reached, the client asks for the members once
more and tries the owner on the new ring. A live node that no longer
owns the name still answers: it forwards a LOOKUP to the owner, and a
file stored on it registers with the owner.

The client keeps one cache, `known`: each name's sphere.StreamFile, its
holders and STAT header, from a LOOKUP reply, or from the upload or the
job that wrote the file, with the upload's target or the job's writer
as the one holder; a job's streams are made of the same objects. So
reading a file by name, or resolving it into a job's stream, sends no
LOOKUP once the client has written the file; resolve_stream looks up only the names it does not know. Holders
confirm the header on every read, a job's segment reads included, which
send it as `expect`. A name this client wrote lists only its writer
until a read there fails or the name is forgotten, so replicas made
since the write are not read before then.

A stream's lookups and the first reads of several files go side by side
through Transport.overlap. The session starts no thread of its own.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path

from . import sphere
from .errors import NotFoundError, TransportError
from .fileops import FileSource, fetch_file, first_holder, push_file, read_records_over
from .records import INDEX_SUFFIX, RecordBatch, RecordIndex
from .routing import RingView
from .transport import Transport
from .wire import MessageKind


class ClientSession:
    def __init__(self, transport: Transport, entry_server: str, profile=None):
        self.transport = transport
        self.entry_server = entry_server
        self.profile = profile
        # name -> the file, holders nearest first; its header is a hint that
        # holders confirm on every read made against it. Never changed in place.
        self.known: dict[str, sphere.StreamFile] = {}
        self._ring: RingView | None = None  # built from the last members() reply
        self._lock = threading.Lock()

    @property
    def address(self) -> str:
        return self.transport.address

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the transport, which then opens no channel and stops its
        executor (see Transport.close)."""
        self.transport.close()

    # ---------------------------------------------------------------- lookup

    def locate(self, name: str) -> list[str]:
        """Resolve every node holding a replica, nearest (by rtt) first."""
        with self._lock:
            known = self.known.get(name)
        return list((known or self._lookup(name)).locations)

    def _lookup(self, name: str) -> sphere.StreamFile:
        """Ask the name's owner for the holders, nearest first, and for the
        file's STAT header; the file is cached."""
        try:
            _, (header, _) = self._at_owner(name, lambda channel: channel.call(
                MessageKind.LOOKUP, {"name": name}))
        except NotFoundError:
            self.forget(name)
            raise
        locations = header["locations"]
        if self.profile is not None:
            locations.sort(key=lambda a: (self.profile.rtt(self.address, a), a))
        found = sphere.StreamFile(name, header["stat"], tuple(locations))
        self.remember(found)
        return found

    def remember(self, file: sphere.StreamFile) -> None:
        """Cache the file, with its holders nearest first and its STAT header."""
        with self._lock:
            self.known[file.name] = file

    def forget(self, name: str) -> None:
        with self._lock:
            self.known.pop(name, None)

    def owner_of(self, name: str) -> str:
        """The name's owner on the ring of the last member list."""
        if self._ring is None:
            self.members()
        return self._ring.owner(name).address

    def members(self) -> list[str]:
        """The entry server's member list. When the entry cannot be reached,
        the other members of the last ring are asked in turn, or, with no
        ring known yet, the entry once more; the last TransportError is
        raised when none answers. The client's ring is rebuilt from the
        list, and the transport starts connecting ahead to its members
        (see Transport.connect_ahead)."""
        if self._ring is None:
            fallbacks = [self.entry_server]
        else:
            fallbacks = [a for a in self._ring.addresses if a != self.entry_server]
        _, (header, _) = first_holder(self.transport, [self.entry_server, *fallbacks],
                                      lambda channel: channel.call(MessageKind.MEMBERS, {}))
        self._ring = RingView.from_addresses(header["addresses"])
        self.transport.connect_ahead(header["addresses"])
        return header["addresses"]

    def _at_owner(self, name: str, attempt):
        """(owner, attempt(channel to owner)) at the name's owner; when the
        owner cannot be reached, again at the owner on a fresh member list."""
        owner = self.owner_of(name)
        try:
            return owner, attempt(self.transport.open_channel(owner))
        except TransportError:
            self.members()
        owner = self.owner_of(name)
        return owner, attempt(self.transport.open_channel(owner))

    # -------------------------------------------------------------- transfer

    def upload(self, source, name: str, index: RecordIndex | None = None) -> list[str]:
        """Store a file (and its index) on the node responsible for the name.

        `source` is a path or a bytes object. A path is read one piece at a
        time as it is sent (fileops.FileSource). When a path is given
        without an explicit index, a sibling .idx file is used if present.
        """
        with contextlib.ExitStack() as opened:
            if isinstance(source, (bytes, bytearray)):
                data = bytes(source)
            else:
                path = Path(source)
                data = opened.enter_context(FileSource(path))
                if index is None:
                    sibling = path.with_name(path.name + INDEX_SUFFIX)
                    if sibling.exists():
                        index = RecordIndex.from_bytes(sibling.read_bytes())
            if index is not None:
                index.validate(len(data))
            index_bytes = index.to_bytes() if index is not None else None
            target, stat = self._at_owner(
                name, lambda channel: push_file(channel, name, data, index_bytes))
        self.remember(sphere.StreamFile(name, stat, (target,)))
        return [target]

    def download(self, name: str, destination) -> int:
        """Fetch a file (and its index) to a local path from the nearest
        holder that has it. A failed download leaves no destination file;
        a file without an index leaves no sibling .idx."""
        destination = Path(destination)
        _, (data, index_bytes) = self._against_header(
            name, lambda channel, stat: fetch_file(channel, name, stat))
        part = destination.with_name(destination.name + ".part")
        destination.parent.mkdir(parents=True, exist_ok=True)
        part.write_bytes(data)
        part.replace(destination)
        sibling = destination.with_name(destination.name + INDEX_SUFFIX)
        if index_bytes is None:  # an old one would index this file in upload()
            sibling.unlink(missing_ok=True)
        else:
            sibling.write_bytes(index_bytes)
        return len(data)

    def stat(self, name: str) -> dict:
        """The file's STAT header as the name's owner has it registered.
        Each call asks afresh: a cached header goes stale unseen when another
        client rewrites the file, and no holder is asked here to confirm it."""
        return self._lookup(name).stat

    def read_records(self, name: str, offset: int, rows: int) -> list[bytes]:
        """Records [offset, offset + rows) from the nearest holder that
        serves the file's header (see _against_header)."""
        return list(self.read_runs(name, [(offset, rows)]))

    def read_runs(self, name: str, runs) -> RecordBatch:
        """The records of runs [(offset, rows), ...] of the file, in run
        order, as one batch from the nearest holder that serves the file's
        header (see _against_header): one READ unless the reply is cut."""
        _, (batch, _) = self._against_header(name, lambda channel, stat: read_records_over(
            channel, name, runs, stat))
        return batch

    def iter_records(self, names, batch_rows: int = 65536):
        """Iterate records of the named files in order, batching reads."""
        for batch in self.iter_batches(names, batch_rows):
            yield from batch

    def iter_batches(self, names, batch_rows: int = 65536):
        """The records of the named files in order, one RecordBatch of at
        most batch_rows records per read. The files' first reads go side by
        side through Transport.overlap, with each file's cached nearest
        holder, or its owner when the client has not looked it up, as the
        peers. A file's later reads go one after another, each through
        _against_header but with the header of its first as `expect`, so no
        file is read at two versions."""
        def first_batch(name: str):
            return self._against_header(name, lambda channel, stat: read_records_over(
                channel, name, [(0, min(batch_rows, stat["records"]))], stat))

        names = list(names)
        with self._lock:
            known = {n: self.known[n] for n in names if n in self.known}
        peers = {known[n].locations[0] if n in known else self.owner_of(n) for n in names}
        firsts = self.transport.overlap(peers, first_batch, names)
        for name, (stat, (batch, _)) in zip(names, firsts):
            yield batch
            for offset in range(len(batch), stat["records"], batch_rows):
                runs = [(offset, min(batch_rows, stat["records"] - offset))]
                _, (batch, _) = self._against_header(name, lambda channel, _: read_records_over(
                    channel, name, runs, stat))
                yield batch

    def _cached(self, name: str) -> sphere.StreamFile | None:
        """The name's cached file, if reads may be made against its header.
        The holders confirm a header only through requests that carry it,
        so a cached header of a file with no bytes or no records, which may
        be answered without one, is not used."""
        with self._lock:
            known = self.known.get(name)
        return known if known is not None and known.size and known.records else None

    def _against_header(self, name: str, attempt) -> tuple[dict, object]:
        """(header, attempt(channel, header)) at the nearest holder that
        serves the file's cached header (see _cached), else at the nearest
        holder of a fresh LOOKUP's header."""
        def at_holders(file: sphere.StreamFile):
            return file.stat, first_holder(self.transport, file.locations,
                                           lambda channel: attempt(channel, file.stat))[1]

        cached = self._cached(name)
        if cached is not None:
            try:
                return at_holders(cached)
            except (TransportError, NotFoundError):
                self.forget(name)
        return at_holders(self._lookup(name))

    # ------------------------------------------------------------------ jobs

    def resolve_stream(self, names) -> sphere.Stream:
        """Build a job input stream from stored file names, with the holders
        and header of each that the client has cached (see _cached). The
        others are looked up at their owners side by side, through
        Transport.overlap. The job's reads confirm each cached header (see
        sphere.run_job)."""
        names = list(names)
        found = {name: self._cached(name) for name in names}
        missing = [name for name, cached in found.items() if cached is None]
        owners = {self.owner_of(name) for name in missing}
        found.update(zip(missing, self.transport.overlap(owners, self._lookup, missing)))
        return sphere.Stream(files=tuple(found[name] for name in names))

    def run_job(self, stream, operator_name: str, params: bytes = b"",
                output: sphere.OutputSpec = sphere.OutputSpec(),
                limits: sphere.SegmentLimits = sphere.DEFAULT_LIMITS,
                job_id: str | None = None, spe_per_node: int = 1):
        return sphere.run_job(self, stream, operator_name, params=params,
                              output=output, limits=limits, job_id=job_id,
                              spe_per_node=spe_per_node)
