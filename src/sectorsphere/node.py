"""Storage node daemon.

Each node persists record files with their companion indexes under a
local data directory, answers lookups for names it owns on the ring
and forwards a lookup of any other name to its owner, serves record
reads and whole-file fetches, gates client uploads by an address ACL,
coordinates replication for owned names, and hosts the compute workers
that execute job segments.

A file's STAT header (see fileops.file_header) is the only description
of a stored file. A holder registers its files with their names' ring
owners through _register, one REGISTER of many names per owner, each
with its header. The owner keeps the last header it was sent, and a
LOOKUP reply carries it as `stat` next to `locations`. A job names each
output so that its writer owns it (routing.name_owned_by): a shuffle
bucket is owned by its home, a LOCAL or ORIGIN segment output by the
node that stores it, so a job output is registered where it is written,
with no REGISTER, unless the ring changed in between. The reply to the
STORE_DATA piece that completes a store, and each file entry of a
FINALIZE_JOB reply, carry the holder's header too, so the job that wrote
a file hands it to the client. A holder may keep another version of the
file than the one a header from a LOOKUP reply or the job that wrote the
file describes (a replica not yet refreshed after a re-upload), so reads
and fetches made against the header send the header itself as `expect`,
and a holder whose header differs refuses them with StaleError. A FETCH
serves a range of the store stream, data then index. A shuffle bucket's
home indexes, at FINALIZE_JOB, only the batches of the attempt that
completed each segment.

Every file is built in temp files under data_dir/.stores, named by the
node, and reaches its final name only through _commit, which validates
the index against the data and renames both into place under the name's
lock: a store's STORE_DATA pieces as they arrive, a job output
(store_file) at once, a shuffle bucket's appends until FINALIZE_JOB
writes its index. So a file is never rewritten in place, a store that
fails or stops half-way leaves the previous version as it was, and a
node stopped before FINALIZE_JOB leaves nothing under a bucket's name.
A store that waits longer than STORE_DEADLINE for its next piece is
dropped with its temp files.
"""

from __future__ import annotations

import contextlib
import logging
import os
import random
import shutil
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sphere
from .errors import (
    AccessDeniedError,
    IntegrityError,
    NotFoundError,
    RangeError,
    SectorError,
    StaleError,
    TransportError,
)
from .fileops import (TRANSFER_CHUNK, FileSource, cut_runs, file_header, push_file,
                      split_rows, stream_size)
from .records import ENTRY_SIZE, RecordBatch, RecordIndex, index_path
from .routing import RingView, name_owned_by
from .transport import Transport, error_reply, reply
from .wire import Message, MessageKind, unpack_payload

log = logging.getLogger(__name__)

DAY_SECONDS = 86400.0
STORES_DIR = ".stores"  # under data_dir: the temp files of the stores in progress
STORE_DEADLINE = 300.0  # seconds a store may wait for its next piece before it is dropped


@dataclass
class NodeConfig:
    address: str
    data_dir: str
    acl_writers: frozenset = frozenset()
    replica_target: int = 3
    check_interval: float = DAY_SECONDS
    seed: int | None = None

    def __post_init__(self):
        if self.replica_target < 1:
            raise ValueError("replica target must be >= 1")


@dataclass
class _Store:
    """A store in progress, its stream written to temp files as it arrives."""
    name: str
    data_size: int
    index_size: int      # -1: the file has no index
    sender: str          # transport origin; what access control judges
    temps: tuple         # the temp paths of the data and of the index (None: no index)
    deadline: float      # on the node's clock; the store is dropped after it
    received: int = 0
    done: bool = False   # complete, failed or expired: whoever set it owns the temps
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def total(self) -> int:
        return self.data_size + max(self.index_size, 0)


def _is_size(n) -> bool:
    return type(n) is int and n >= 0


def _write_piece(store: _Store, body) -> None:
    """Append a piece's data bytes and index bytes to the store's temp
    files, which the first piece creates."""
    mode = "ab" if store.received else "xb"
    cut = max(0, store.data_size - store.received)
    for temp, part in zip(store.temps, (body[:cut], body[cut:])):
        if temp is not None and (part or mode == "xb"):
            with open(temp, mode) as fh:
                fh.write(part)


def _discard(temps) -> None:
    for temp in temps:
        if temp is not None:
            temp.unlink(missing_ok=True)


def _checked_runs(runs, records: int, name: str) -> list[tuple[int, int]]:
    """A read's `runs` of the file `name` of `records` records, as (offset,
    rows) pairs. IntegrityError unless they are a non-empty list of pairs
    of ints, RangeError unless each run has rows and lies in the file."""
    if not isinstance(runs, (list, tuple)) or not runs or not all(
            isinstance(run, (list, tuple)) and len(run) == 2
            and all(type(n) is int for n in run) for run in runs):
        raise IntegrityError("a read of %s names the runs %.80r, not (offset, rows) "
                             "pairs of ints" % (name, runs))
    for offset, rows in runs:
        if offset < 0 or rows < 1 or offset + rows > records:
            raise RangeError("record run [%d, %d) is empty or outside %s's %d records"
                             % (offset, offset + rows, name, records))
    return [(offset, rows) for offset, rows in runs]


class StorageNode:
    def __init__(self, config: NodeConfig, transport: Transport, ring: RingView):
        self.config = config
        self.transport = transport
        self.ring = ring
        self.address = config.address
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        # the temp files of a store that a stopped node never finished
        shutil.rmtree(self.data_dir / STORES_DIR, ignore_errors=True)
        (self.data_dir / STORES_DIR).mkdir()
        self.clock = transport.clock
        self.files: dict[str, dict] = {}  # name -> STAT header, never changed in place
        self.registry: dict[str, list[str]] = {}
        self.stats: dict[str, dict] = {}   # owned name -> its last registered STAT header
        self._meta_lock = threading.RLock()
        self._name_locks: dict[str, threading.Lock] = {}
        self._stores: dict[str, _Store] = {}  # sender's token -> its store in progress
        # (job, bucket) -> (file name, its temp paths, [(ordinal, attempt,
        # index entries) per batch, in file order])
        self._shuffle: dict[tuple[str, int], tuple[str, tuple, list]] = {}
        self._rng = random.Random(config.seed)
        self._unannounced = False  # a reannounce failed: replicate_check sends it again
        self.spe_host = sphere.SpeHost(self)
        self._stop = threading.Event()

    # ------------------------------------------------------------------ setup

    def start(self, replicate_in_background: bool = False) -> None:
        self.transport.listen(self.handle_message)
        if replicate_in_background:
            threading.Thread(target=self._replication_loop, daemon=True).start()

    def stop(self) -> None:
        self._stop.set()
        self.transport.close()

    def _replication_loop(self) -> None:
        while not self._stop.wait(self.config.check_interval):
            try:
                self.replicate_check()
            except SectorError as exc:
                log.warning("replication cycle failed: %s", exc)

    # ------------------------------------------------------------ ring epochs

    def prepare_ring(self, ring: RingView) -> None:
        """Phase 1 of a membership change: adopt the epoch, forget registrations."""
        with self._meta_lock:
            self.ring = ring
            self.registry = {}
            self.stats = {}

    def reannounce(self) -> None:
        """Phase 2: re-register local holdings with their (possibly new) owners."""
        with self._meta_lock:
            held = list(self.files.items())
        try:
            self._register(held)
            self._unannounced = False
        except SectorError as exc:
            self._unannounced = True
            log.warning("could not re-register every file: %s", exc)

    # ----------------------------------------------------------------- paths

    def _path_for(self, name: str) -> Path:
        relative = Path(name)
        if (not relative.parts or relative.is_absolute() or ".." in relative.parts
                or relative.parts[0] == STORES_DIR):
            raise IntegrityError("illegal file name %r" % name)
        return self.data_dir / relative

    def _temp_paths(self, indexed: bool) -> tuple[Path, Path | None]:
        """New temp paths for a store's data and index (None: no index).
        The node names them; a sender's token never becomes a path."""
        stem = self.data_dir / STORES_DIR / uuid.uuid4().hex
        return stem.with_suffix(".dat"), stem.with_suffix(".idx") if indexed else None

    def _lock_for(self, name: str) -> threading.Lock:
        with self._meta_lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = self._name_locks[name] = threading.Lock()
            return lock

    def holds(self, name: str) -> bool:
        with self._meta_lock:
            return name in self.files

    def meta(self, name: str, expect: dict | None = None) -> dict:
        """The local file's STAT header; with `expect`, a header the caller
        holds, StaleError unless the local copy is the one it describes."""
        with self._meta_lock:
            stat = self.files.get(name)
        if stat is None:
            raise NotFoundError("%s is not stored on %s" % (name, self.address))
        if expect is not None and stat != expect:
            raise StaleError("%s on %s is %s, not %s" % (name, self.address, stat, expect))
        return stat

    # ----------------------------------------------------------------- store

    def store_file(self, sender: str, name: str, data: bytes,
                   index: RecordIndex | None, internal: bool = False) -> dict:
        """Store a file held in memory (a job output) through temp files
        and _commit, as a streamed store is, and register it. Returns its
        STAT header."""
        self._check_write_access(sender, internal)
        self._path_for(name)  # an illegal name is refused before a byte is written
        temps = self._temp_paths(index is not None)
        try:
            temps[0].write_bytes(data)
            if index is not None:
                temps[1].write_bytes(index.to_bytes())
        except BaseException:
            _discard(temps)
            raise
        stat = self._commit(name, temps)
        self._register([(name, stat)])
        return stat

    def _commit(self, name: str, temps) -> dict:
        """The one way a file reaches its final path: check the index temp
        (None: no index) against the data temp's size, rename both into
        place as the file `name` under the name's lock and record their
        STAT header, which is returned. A commit that fails deletes the
        temp files and leaves the previous version."""
        data, index_temp = temps
        try:
            path = self._path_for(name)
            size, records = data.stat().st_size, 1
            if index_temp is not None:
                index = RecordIndex.from_bytes(index_temp.read_bytes())
                index.validate(size)
                records = len(index)
            stat = file_header(records, size, index_temp is not None)
            with self._lock_for(name):
                path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(data, path)
                if index_temp is None:  # an index of another version indexes nothing here
                    index_path(path).unlink(missing_ok=True)
                else:
                    os.replace(index_temp, index_path(path))
                with self._meta_lock:
                    self.files[name] = stat
        except BaseException:
            _discard(temps)
            raise
        return stat

    def _check_write_access(self, origin: str, internal: bool) -> None:
        if internal:
            # over sockets the visible origin is the peer host, without the
            # port, so membership is matched on the host part too
            members = set(self.ring.addresses) | {self.address}
            hosts = {a.rsplit(":", 1)[0] for a in members}
            if origin not in members and origin not in hosts:
                raise AccessDeniedError(
                    "internal store from %s, which is not a ring member" % origin)
            return
        if origin not in self.config.acl_writers:
            raise AccessDeniedError(
                "%s is not in the write ACL of %s" % (origin, self.address))

    def _register(self, files) -> None:
        """Tell the owners of the (name, STAT header) pairs' names that this
        node holds them, with their headers: one REGISTER {"holder",
        "files": {name: header}} per remote owner, and the names this node
        owns are registered here. Every owner is tried; the first failure
        is raised afterwards. A name adds its length and about 50 bytes to
        a REGISTER, so the 64 MiB frame cap holds about a million names per
        owner."""
        by_owner: dict[str, dict[str, dict]] = {}
        for name, stat in files:
            by_owner.setdefault(self.ring.owner(name).address, {})[name] = stat
        failure = None
        for owner, headers in by_owner.items():
            try:
                if owner == self.address:
                    self.register_holder(self.address, headers)
                else:
                    self.transport.open_channel(owner).call(
                        MessageKind.REGISTER, {"holder": self.address, "files": headers})
            except SectorError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure

    def register_holder(self, holder: str, headers: dict[str, dict]) -> None:
        """Record that holder has each named file, with its STAT header."""
        with self._meta_lock:
            for name, header in headers.items():
                holders = self.registry.setdefault(name, [])
                if holder not in holders:
                    holders.append(holder)
                self.stats[name] = header

    # ---------------------------------------------------------------- lookup

    def lookup(self, name: str) -> tuple[list[str], dict]:
        """The nodes that hold name, and the STAT header that the name's
        owner last had registered."""
        owner = self.ring.owner(name)
        if owner.address != self.address:
            header, _ = self.transport.open_channel(owner.address).call(
                MessageKind.LOOKUP, {"name": name})
            return header["locations"], header["stat"]
        with self._meta_lock:
            holders = list(self.registry.get(name, ()))
            stat = self.stats.get(name)
        if not holders:
            raise NotFoundError("no replica of %s is registered" % name)
        return holders, stat

    # ----------------------------------------------------------------- reads

    def read_local(self, name: str, offset: int, rows: int,
                   expect: dict | None = None) -> tuple[RecordBatch, RecordIndex]:
        """Local records [offset, offset + rows) as one batch, and their
        index entries in the file; with `expect`, only of the version that
        STAT header describes (see meta)."""
        return self._read_runs(name, [(offset, rows)], expect=expect)

    def _read_runs(self, name: str, runs, max_bytes: int | None = None,
                   expect: dict | None = None) -> tuple[RecordBatch, RecordIndex]:
        """The local records of `runs`, [(offset, rows), ...], in run order,
        as one batch, and their index entries in the file. With max_bytes,
        cut before the first record that takes the records and their
        ENTRY_SIZE entries past it, but never to zero rows. A file without
        an index is one record."""
        stat = self.meta(name, expect)
        runs = _checked_runs(runs, stat["records"], name)
        if max_bytes is not None:  # each row takes ENTRY_SIZE bytes at least
            runs, _ = cut_runs(runs, max_bytes // ENTRY_SIZE + 1)
        path = self._path_for(name)
        if stat["indexed"]:
            with index_path(path).open("rb") as fh:
                parts = []
                for offset, rows in runs:
                    fh.seek(offset * ENTRY_SIZE)
                    parts.append(fh.read(rows * ENTRY_SIZE))
            entries = RecordIndex.from_bytes(b"".join(parts)).array
            if len(entries) != sum(rows for _, rows in runs):
                raise IntegrityError("the index of %s is truncated" % name)
        else:
            entries = RecordIndex([(0, stat["size"])]).array
        if max_bytes is not None:
            weights = np.cumsum(entries[:, 1] + ENTRY_SIZE)
            entries = entries[:max(1, int(np.searchsorted(weights, max_bytes, side="right")))]
        # each run's records are one span of the file, gaps included
        spans, within, start, base = [], [], 0, 0
        with path.open("rb") as fh:
            for _, rows in runs:
                run = entries[start:start + rows]
                if not len(run):
                    break
                start += len(run)
                first = int(run[0, 0])
                length = int(run[-1].sum()) - first
                fh.seek(first)
                spans.append(fh.read(length))
                if len(spans[-1]) != length:
                    raise IntegrityError("%s is shorter than its index" % name)
                moved = run.copy()
                moved[:, 0] -= first
                moved[:, 0] += base
                within.append(moved)
                base += length
        return RecordBatch(b"".join(spans), np.concatenate(within)), RecordIndex(entries)

    # ------------------------------------------------------------ replication

    def replicate_check(self) -> list[dict]:
        """One maintenance cycle: send a failed reannounce again, then bring
        every owned name up to the replica target."""
        if self._unannounced:
            self.reannounce()
        target = self.config.replica_target
        with self._meta_lock:
            owned = [(name, list(holders)) for name, holders in self.registry.items()
                     if self.ring.owner(name).address == self.address]
        actions = []
        for name, holders in owned:
            need = target - len(holders)
            if need <= 0:
                continue
            candidates = [a for a in self.ring.addresses if a not in holders]
            if len(candidates) < need:
                log.warning("only %d candidate nodes for %s (need %d more replicas)",
                            len(candidates), name, need)
                actions.append({"name": name, "warning": "insufficient nodes",
                                "available": len(candidates), "needed": need})
            picks = self._rng.sample(candidates, min(need, len(candidates)))
            source = self.address if self.holds(name) else holders[0]
            for dest in picks:
                try:
                    if source == self.address:
                        self.push_replica(name, dest)
                    else:
                        self.transport.open_channel(source).call(
                            MessageKind.REPLICATE, {"name": name, "dest": dest})
                except (TransportError, SectorError) as exc:
                    log.warning("replica push %s -> %s failed: %s", name, dest, exc)
                    continue
                actions.append({"name": name, "source": source, "dest": dest})
        return actions

    def push_replica(self, name: str, dest: str) -> None:
        """Copy a local file and its index to another node, read from disk a
        piece at a time. Both are opened under the name's lock, so they are
        one version even if a store commits another meanwhile."""
        path = self._path_for(name)
        with contextlib.ExitStack() as opened:
            with self._lock_for(name):
                stat = self.meta(name)
                data = opened.enter_context(FileSource(path))
                index = (opened.enter_context(FileSource(index_path(path)))
                         if stat["indexed"] else None)
            push_file(self.transport.open_channel(dest), name, data, index, internal=True)

    # ------------------------------------------------------------ job output

    def shuffle_append(self, job: str, bucket: int, sizes, body: bytes,
                       ordinal: int, attempt: int) -> None:
        """Append one batch to the data temp file of the bucket, which
        finalize_job commits: `body` is its records back to back, `sizes`
        their sizes, as split_rows checked them. A bucket whose name is
        illegal is refused before any state or temp path is made."""
        with self._meta_lock:
            state = self._shuffle.get((job, bucket))
            if state is None:
                # named at the first append, so that a ring change before
                # FINALIZE_JOB cannot split the bucket across two names
                name = name_owned_by(self.ring, sphere.bucket_file_name(job, bucket),
                                     self.address)
                self._path_for(name)
                state = self._shuffle[job, bucket] = (name, self._temp_paths(True), [])
        name, temps, batches = state
        with self._lock_for(name):
            if self._shuffle.get((job, bucket)) is not state:
                raise IntegrityError("bucket %d of %s was finalized during the append"
                                     % (bucket, job))
            with temps[0].open("ab") as fh:
                offset = fh.tell()
                fh.write(body)
            batches.append((ordinal, attempt, RecordIndex.from_sizes(sizes, start=offset).array))

    def finalize_job(self, job: str, committed: list[int]) -> list[dict]:
        """Index the job's buckets here, each from the batches of
        committed[ordinal], the attempt that completed segment `ordinal`
        (other attempts' bytes stay in the file as gaps), commit each one's
        temp files through _commit, then register them all at once: here,
        unless the ring changed after a bucket's first append."""
        with self._meta_lock:
            held = sorted((key[1], state) for key, state in self._shuffle.items()
                          if key[0] == job)
        indexed, results = [], []
        for bucket, (name, temps, batches) in held:
            with self._lock_for(name):  # after any append still writing
                with self._meta_lock:
                    self._shuffle.pop((job, bucket), None)
            kept = [entries for ordinal, attempt, entries in batches
                    if 0 <= ordinal < len(committed) and committed[ordinal] == attempt]
            temps[1].write_bytes(RecordIndex(np.concatenate(kept) if kept else ()).to_bytes())
            stat = self._commit(name, temps)
            indexed.append((name, stat))
            results.append({"name": name, "bucket": bucket, "stat": stat})
        self._register(indexed)
        return results

    # -------------------------------------------------------------- dispatch

    def handle_message(self, origin: str, msg: Message) -> Message:
        try:
            header, body = unpack_payload(msg.payload) if msg.payload else ({}, b"")
            return self._dispatch(origin, msg, header, body)
        except SectorError as exc:
            return error_reply(msg, exc.code, str(exc))
        except Exception as exc:  # defensive: never tear down the daemon
            log.exception("internal error handling kind=%s", msg.kind)
            return error_reply(msg, "internal", str(exc))

    def _dispatch(self, origin: str, msg: Message, header: dict, body) -> Message:
        kind = msg.kind
        if kind == MessageKind.PING:
            return reply(msg, MessageKind.OK, {"pong": True, "node": self.address})
        if kind == MessageKind.LOOKUP:
            locations, stat = self.lookup(header["name"])
            return reply(msg, MessageKind.OK, {"locations": locations, "stat": stat})
        if kind == MessageKind.MEMBERS:
            return reply(msg, MessageKind.OK, {"addresses": list(self.ring.addresses)})
        if kind == MessageKind.REGISTER:
            self.register_holder(header["holder"], header["files"])
            return reply(msg, MessageKind.OK, {})
        if kind == MessageKind.STORE_DATA:
            return self._op_store_data(origin, msg, header, body)
        if kind == MessageKind.READ:
            return self._op_read(msg, header)
        if kind == MessageKind.FETCH:
            return self._op_fetch(msg, header)
        if kind == MessageKind.REPLICATE:
            self.push_replica(header["name"], header["dest"])
            return reply(msg, MessageKind.OK, {})
        if kind == MessageKind.SPE_RUN:
            report, body = self.spe_host.run_segment(origin, header)
            return reply(msg, MessageKind.OK, report, body)
        if kind == MessageKind.SHUFFLE_APPEND:
            entries, records = split_rows(header["rows"], body, "SHUFFLE_APPEND")
            self.shuffle_append(header["job"], header["bucket"], entries[:, 1], records,
                                header["ordinal"], header["attempt"])
            return reply(msg, MessageKind.OK, {})
        if kind == MessageKind.FINALIZE_JOB:
            files = self.finalize_job(header["job"], header["committed"])
            return reply(msg, MessageKind.OK, {"files": files})
        raise SectorError("unsupported message kind %s" % kind)

    def _op_store_data(self, origin: str, msg: Message, header: dict, body) -> Message:
        """One piece of a store's data-then-index stream, written to the
        store's temp files. The first piece opens the store (_open_store);
        the piece that completes it validates the index and commits the
        file. Each piece first drops the stores whose deadline has passed."""
        token, offset = header.get("token"), header.get("offset")
        if not isinstance(token, str) or not _is_size(offset):
            raise IntegrityError("store piece of token %.80r at offset %.80r" % (token, offset))
        self._expire_stores()
        with self._meta_lock:
            store = self._stores.get(token)
            if store is None:
                store = self._stores[token] = self._open_store(origin, header)
        with store.lock:
            if store.done:
                raise IntegrityError("the store of %s has ended" % store.name)
            if store.sender != origin:
                raise AccessDeniedError("the store of %s was opened by another sender"
                                        % store.name)
            if offset != store.received or offset + len(body) > store.total:
                raise IntegrityError("store piece at %d of %s is out of order or past its "
                                     "%d bytes" % (offset, store.name, store.total))
            try:
                _write_piece(store, body)
            except BaseException:
                store.done = True
                _discard(store.temps)
                raise
            store.received += len(body)
            store.deadline = self.clock.now() + STORE_DEADLINE
            if store.received < store.total:
                return reply(msg, MessageKind.OK, {})
            store.done = True
        with self._meta_lock:
            self._stores.pop(token, None)
        stat = self._commit(store.name, store.temps)
        self._register([(store.name, stat)])
        return reply(msg, MessageKind.OK, stat)

    def _open_store(self, origin: str, header: dict) -> _Store:
        """The store that a first piece opens: refused, before a byte is
        written, unless the sender may write, the piece is at offset 0,
        the sizes are ints of at least 0 (an index size -1, for no index,
        or a multiple of ENTRY_SIZE) and the name is legal."""
        self._check_write_access(origin, bool(header.get("internal")))
        name, data_size, index_size = (header.get(key) for key in
                                       ("name", "data_size", "index_size"))
        if header["offset"]:
            raise IntegrityError("piece at %d of a store of %.80r that is not open"
                                 % (header["offset"], name))
        indexed = _is_size(index_size) and not index_size % ENTRY_SIZE
        unindexed = type(index_size) is int and index_size == -1
        if not _is_size(data_size) or not (indexed or unindexed):
            raise IntegrityError("store of %.80r announces data size %.80r and index size %.80r"
                                 % (name, data_size, index_size))
        if not isinstance(name, str):
            raise IntegrityError("store of the name %.80r" % (name,))
        self._path_for(name)
        return _Store(name=name, data_size=data_size, index_size=index_size, sender=origin,
                      temps=self._temp_paths(indexed), deadline=self.clock.now() + STORE_DEADLINE)

    def _expire_stores(self) -> None:
        """Drop every store whose deadline has passed, with its temp files."""
        now = self.clock.now()
        with self._meta_lock:
            expired = [token for token, store in self._stores.items() if store.deadline < now]
            dropped = [self._stores.pop(token) for token in expired]
        for store in dropped:
            with store.lock:
                if not store.done:
                    store.done = True
                    _discard(store.temps)

    def _op_read(self, msg: Message, header: dict) -> Message:
        """Index entries in the .idx layout, then the records' bytes, of the
        header's runs, cut at TRANSFER_CHUNK bytes (see _read_runs)."""
        records, index = self._read_runs(header["name"], header["runs"],
                                         max_bytes=TRANSFER_CHUNK, expect=header.get("expect"))
        return reply(msg, MessageKind.OK, {"rows": len(index)},
                     index.to_bytes() + records.pack()[0])

    def _op_fetch(self, msg: Message, header: dict) -> Message:
        """Bytes [offset, offset + length) of the store stream: data, then index."""
        name, offset, length = header["name"], header["offset"], header["length"]
        stat = self.meta(name, header.get("expect"))
        if offset < 0 or not 0 <= length <= TRANSFER_CHUNK:
            raise RangeError("fetch of %d bytes at %d is negative or over the chunk limit"
                             % (length, offset))
        size, end = stat["size"], offset + length
        if end > stream_size(stat):
            raise RangeError("fetch range beyond end of %s" % name)
        path = self._path_for(name)
        parts = []  # a file shorter than its header gives a short reply
        for part, start, stop in ((path, offset, min(end, size)),
                                  (index_path(path), max(0, offset - size), end - size)):
            if start < stop:
                with part.open("rb") as fh:
                    fh.seek(start)
                    parts.append(fh.read(stop - start))
        return reply(msg, MessageKind.OK, {}, b"".join(parts))
