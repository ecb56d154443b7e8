"""Message transport: request/response control messaging over a pluggable
reliable byte stream.

Two backends share one interface. The in-memory backend wires endpoints
together through an InMemoryNetwork and injects a configurable per-link
round-trip time, which makes multi-node wide-area experiments runnable
in one process. The TCP backend frames messages over real sockets.

Channels are cached per (local endpoint, peer) and are safe to share
across threads; one connect to a peer is in flight at a time, and its
callers share it. Responses are matched to callers by request id.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import queue
import socket
import socketserver
import threading
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor, wait
from itertools import islice

from .clock import RealClock
from .errors import RpcTimeoutError, TransportError, error_from_code
from .wire import (
    DEFAULT_MAX_PAYLOAD,
    HEADER,
    HEADER_LEN,
    Message,
    MessageKind,
    encode_message,
    pack_payload,
    unpack_payload,
)

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 10.0
LANES = 8  # threads of a transport's executor: the most calls of its fan-outs in flight


class LinkProfile:
    """Symmetric per-pair round-trip times in milliseconds (in-memory backend)."""

    def __init__(self, rtts=None, default: float = 0.0):
        self._rtts = {}
        self.default = float(default)
        for (a, b), ms in (rtts or {}).items():
            self.set_rtt(a, b, ms)

    def set_rtt(self, a: str, b: str, ms: float) -> None:
        if ms < 0:
            raise ValueError("rtt must be non-negative, got %r" % ms)
        self._rtts[frozenset((a, b))] = float(ms)

    def rtt(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._rtts.get(frozenset((a, b)), self.default)


def reply(request: Message, kind: int, header: dict | None = None, body: bytes = b"") -> Message:
    payload = pack_payload(header or {}, body) if (header is not None or body) else b""
    return Message(kind=kind, request_id=request.request_id, payload=payload)


def error_reply(request: Message, code: str, message: str) -> Message:
    return reply(request, MessageKind.ERROR, {"code": code, "message": message})


class Channel:
    """Shared request/response channel to one peer."""

    def __init__(self, local: str, peer: str):
        self.local = local
        self.peer = peer
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()

    @property
    def is_open(self) -> bool:
        raise NotImplementedError

    def next_request_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def rpc(self, request: Message, timeout: float | None = None) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def call(self, kind: int, header: dict | None = None, body: bytes = b"",
             timeout: float | None = None) -> tuple[dict, memoryview | bytes]:
        """Send a structured request; unpack the response, raising remote
        errors. The reply's body is a view of its payload (unpack_payload)."""
        request = Message(kind=kind, request_id=self.next_request_id(),
                          payload=pack_payload(header or {}, body))
        response = self.rpc(request, timeout=timeout)
        if response.request_id != request.request_id:
            raise TransportError(
                "response id %d does not match request id %d"
                % (response.request_id, request.request_id))
        rheader, rbody = unpack_payload(response.payload) if response.payload else ({}, b"")
        if response.kind == MessageKind.ERROR:
            raise error_from_code(rheader.get("code", "internal"),
                                  rheader.get("message", "remote error"))
        return rheader, rbody


class Transport:
    """One endpoint's view of the network: listen for requests, open cached
    channels to peers, and run fan-outs and connects ahead on one executor
    of LANES threads, started at its first use. `clock` is the endpoint's
    time: a RealClock, or the clock of its in-memory network."""

    def __init__(self, address: str):
        self.address = address
        self.clock = RealClock()
        self._channels: dict[str, Channel] = {}
        self._connecting: dict[str, Future] = {}  # peer -> its connect in flight
        self._channels_lock = threading.Lock()  # also guards _closed and _executor
        self._closed = False
        self._executor: ThreadPoolExecutor | None = None
        self._lane = threading.local()  # .executor is set on the executor's own threads

    def listen(self, handler) -> None:
        raise NotImplementedError

    def stop_listening(self) -> None:
        """Serve no more requests; close() does this first."""

    def _connect(self, peer: str) -> Channel:
        raise NotImplementedError

    def waits_on(self, peer: str) -> bool:
        """Whether a call to peer waits on a network, so that overlapping
        calls saves time."""
        return True

    def connect_ahead(self, peers) -> None:
        """Connect to peers ahead of their first calls where that pays. Over
        TCP it does not: a command opens no socket to a member it does not call."""

    def _submit(self, fn, *args) -> Future:
        """fn(*args) queued on the executor, which starts at its first use."""
        with self._channels_lock:
            if self._closed:
                raise TransportError("%s is closed" % self.address)
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    LANES, thread_name_prefix="lanes-%s" % self.address,
                    initializer=setattr, initargs=(self._lane, "executor", True))
            executor = self._executor
        try:  # outside the lock, as a submit may start a thread
            return executor.submit(fn, *args)
        except RuntimeError:  # close() shut the executor down meanwhile
            raise TransportError("%s is closed" % self.address) from None

    def overlap(self, peers, fn, items):
        """fn(item) for every item, as an iterator of the results in item
        order that raises a call's exception in place of its result. When a
        call to any of `peers` waits on a network, the calls run on the
        executor, each queued as the caller takes the result LANES places
        before it; else each in the caller's thread when the caller reaches
        it, as threads save no time without a network wait (one interpreter
        lock). No call outlives the iteration, also when the caller closes
        it early; a call that close() cancels raises TransportError.

        No call on the executor waits on a call queued on the same executor,
        which could then fill with calls that wait on calls that never start:
        no fan-out call makes a fan-out on its own transport."""
        if not any(map(self.waits_on, peers)):
            yield from map(fn, items)
            return
        items = iter(items)
        pending = deque()
        try:
            pending.extend(self._submit(fn, item) for item in islice(items, LANES))
            while pending:
                try:
                    result = pending.popleft().result()
                except CancelledError:
                    raise TransportError("%s closed during a call" % self.address) from None
                pending.extend(self._submit(fn, item) for item in islice(items, 1))
                yield result
        finally:  # a cancelled call never starts; wait for those that did
            wait([call for call in pending if not call.cancel()])

    def has_channel(self, peer: str) -> bool:
        """Whether peer has an open channel or a connect in flight."""
        with self._channels_lock:
            cached = self._channels.get(peer)
            return peer in self._connecting or (cached is not None and cached.is_open)

    def open_channel(self, peer: str) -> Channel:
        """The cached open channel to peer, else a new one. One connect to a
        peer is in flight at a time: a caller whose peer is being connected
        waits for that connect, and shares its channel or its error. A failed
        connect is not remembered, so the next call tries again. After
        close(), the transport opens no channel: a call raises
        TransportError, and a connect that finishes after close() closes
        its channel and raises it too."""
        if not peer:
            raise TransportError("empty peer address")
        with self._channels_lock:
            if self._closed:
                raise TransportError("%s is closed" % self.address)
            cached = self._channels.get(peer)
            if cached is not None and cached.is_open:
                return cached
            pending = self._connecting.get(peer)
            leader = pending is None
            if leader:
                pending = self._connecting[peer] = Future()
        if not leader:
            return pending.result()
        # connect outside the lock, so that connecting to one peer does not
        # hold up the channels to others
        try:
            channel = self._connect(peer)
            with self._channels_lock:
                kept = not self._closed
                if kept:
                    self._channels[peer] = channel
            if not kept:
                channel.close()
                raise TransportError("%s closed while connecting to %s" % (self.address, peer))
            pending.set_result(channel)
            return channel
        except BaseException as exc:
            pending.set_exception(exc)
            raise
        finally:
            with self._channels_lock:
                if self._connecting.get(peer) is pending:
                    del self._connecting[peer]

    def close(self) -> None:
        """Stop listening, close every channel and shut the executor down:
        its queued calls are cancelled, and its running ones waited for,
        unless close() runs on one of the executor's own threads."""
        self.stop_listening()
        with self._channels_lock:
            self._closed = True
            channels, self._channels = list(self._channels.values()), {}
            self._connecting = {}
            executor, self._executor = self._executor, None
        for channel in channels:
            channel.close()
        if executor is not None:
            executor.shutdown(wait=not getattr(self._lane, "executor", False),
                              cancel_futures=True)


class InMemoryNetwork:
    """Registry wiring in-memory endpoints together, with rtt injection."""

    def __init__(self, profile: LinkProfile | None = None, clock=None):
        self.profile = profile or LinkProfile()
        self.clock = clock or RealClock()
        self._handlers = {}
        self._lock = threading.Lock()

    def endpoint(self, address: str) -> "InMemoryTransport":
        return InMemoryTransport(self, address)

    def listen(self, address: str, handler) -> None:
        with self._lock:
            self._handlers[address] = handler

    def unlisten(self, address: str) -> None:
        with self._lock:
            self._handlers.pop(address, None)

    def _handler_for(self, address: str):
        with self._lock:
            handler = self._handlers.get(address)
        if handler is None:
            raise TransportError("peer %s is not reachable" % address)
        return handler

    def connect(self, local: str, peer: str) -> None:
        self._handler_for(peer)  # connection refused if nobody listens
        self.clock.sleep(self.profile.rtt(local, peer) / 1000.0)

    def dispatch(self, local: str, peer: str, request: Message) -> Message:
        rtt = self.profile.rtt(local, peer)
        self.clock.sleep(rtt / 2000.0)
        handler = self._handler_for(peer)
        response = handler(local, request)
        self.clock.sleep(rtt / 2000.0)
        return response

    def dispatch_oneway(self, local: str, peer: str, request: Message) -> None:
        """Deliver in the sender's thread after half the round trip, and
        drop the reply; a message to a peer nobody listens at is lost.
        Nothing in the package calls it; it stays until ssbench/tracing.py
        stops wrapping it."""
        self.clock.sleep(self.profile.rtt(local, peer) / 2000.0)
        try:
            self._handler_for(peer)(local, request)
        except TransportError:
            pass


class InMemoryChannel(Channel):
    def __init__(self, network: InMemoryNetwork, local: str, peer: str):
        super().__init__(local, peer)
        self._network = network
        self._closed = False

    @property
    def is_open(self) -> bool:
        return not self._closed

    def rpc(self, request: Message, timeout: float | None = None) -> Message:
        if self._closed:
            raise TransportError("channel to %s is closed" % self.peer)
        return self._network.dispatch(self.local, self.peer, request)

    def close(self) -> None:
        self._closed = True


class InMemoryTransport(Transport):
    def __init__(self, network: InMemoryNetwork, address: str):
        super().__init__(address)
        self.network = network
        self.clock = network.clock

    def listen(self, handler) -> None:
        self.network.listen(self.address, handler)

    def stop_listening(self) -> None:
        self.network.unlisten(self.address)

    def _connect(self, peer: str) -> Channel:
        self.network.connect(self.address, peer)
        return InMemoryChannel(self.network, self.address, peer)

    def waits_on(self, peer: str) -> bool:
        return self.network.profile.rtt(self.address, peer) > 0

    def connect_ahead(self, peers) -> None:
        """Queue on the executor a connect to each of peers whose link waits
        and that has no channel yet. A failed connect is dropped with its
        Future: the call that needs the peer tries again and raises
        TransportError."""
        for peer in peers:
            if self.waits_on(peer) and not self.has_channel(peer):
                self._submit(self.open_channel, peer)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_message(sock: socket.socket) -> Message:
    head = _recv_exactly(sock, HEADER_LEN)
    kind, request_id, length = HEADER.unpack(head)
    if length > DEFAULT_MAX_PAYLOAD:
        raise TransportError("incoming payload of %d bytes exceeds maximum" % length)
    payload = _recv_exactly(sock, length) if length else b""
    return Message(kind=kind, request_id=request_id, payload=payload)


class TcpChannel(Channel):
    """Socket channel with a receiver thread routing responses by request id."""

    def __init__(self, local: str, peer: str, sock: socket.socket):
        super().__init__(local, peer)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._pending: dict[int, queue.SimpleQueue] = {}
        self._pending_lock = threading.Lock()
        self._closed = False
        threading.Thread(target=self._receive_loop, daemon=True).start()

    @property
    def is_open(self) -> bool:
        return not self._closed

    def _receive_loop(self) -> None:
        try:
            while True:
                msg = _recv_message(self._sock)
                with self._pending_lock:
                    waiter = self._pending.pop(msg.request_id, None)
                if waiter is not None:
                    waiter.put(msg)
        except (TransportError, OSError):
            self._fail_pending()

    def _fail_pending(self) -> None:
        self._closed = True
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for waiter in pending.values():
            waiter.put(None)

    def rpc(self, request: Message, timeout: float | None = None) -> Message:
        if self._closed:
            raise TransportError("channel to %s is closed" % self.peer)
        waiter: queue.SimpleQueue = queue.SimpleQueue()
        with self._pending_lock:
            self._pending[request.request_id] = waiter
        try:
            data = encode_message(request)
            with self._send_lock:
                self._sock.sendall(data)
            response = waiter.get(timeout=timeout if timeout is not None else DEFAULT_TIMEOUT)
        except queue.Empty:
            with self._pending_lock:
                self._pending.pop(request.request_id, None)
            raise RpcTimeoutError("no response from %s within timeout" % self.peer)
        except OSError as exc:
            self.close()
            raise TransportError("send to %s failed: %s" % (self.peer, exc))
        if response is None:
            raise TransportError("connection to %s lost" % self.peer)
        return response

    def close(self) -> None:
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


class _TcpServer(socketserver.ThreadingTCPServer):
    """Closing the server also shuts down the connections it accepted, so
    that their threads end and a stopped node answers no one."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args):
        self.accepted = set()  # sockets of the connections being served
        super().__init__(*args)

    def process_request(self, request, client_address):
        self.accepted.add(request)
        super().process_request(request, client_address)

    def close_request(self, request):
        self.accepted.discard(request)
        super().close_request(request)

    def server_close(self):
        super().server_close()
        for request in list(self.accepted):
            with contextlib.suppress(OSError):  # closed by its own thread meanwhile
                request.shutdown(socket.SHUT_RDWR)


class TcpTransport(Transport):
    """Real-socket backend. Addresses are 'host:port'; request origins are
    the peer's host, which is what address-based ACLs match against."""

    def __init__(self, address: str):
        super().__init__(address)
        self._server = None

    @staticmethod
    def split(address: str) -> tuple[str, int]:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise TransportError("bad tcp address %r, want host:port" % address)
        return host, int(port)

    def listen(self, handler) -> None:
        host, port = self.split(self.address)

        class FrameHandler(socketserver.BaseRequestHandler):
            def handle(self):
                origin = self.client_address[0]
                sock = self.request
                write_lock = threading.Lock()

                def serve_one(msg: Message):
                    try:
                        response = handler(origin, msg)
                    except Exception as exc:  # handler bugs must not kill the server
                        log.exception("unhandled error serving kind=%s", msg.kind)
                        response = error_reply(msg, "internal", str(exc))
                    data = encode_message(response)
                    with write_lock, contextlib.suppress(OSError):
                        sock.sendall(data)

                try:
                    while True:
                        msg = _recv_message(sock)
                        threading.Thread(target=serve_one, args=(msg,), daemon=True).start()
                except (TransportError, OSError):
                    return

        try:
            self._server = _TcpServer((host, port), FrameHandler)
        except OSError as exc:
            raise TransportError("cannot listen on %s: %s" % (self.address, exc))
        threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
                         daemon=True).start()

    def _connect(self, peer: str) -> Channel:
        host, port = self.split(peer)
        try:
            sock = socket.create_connection((host, port), timeout=DEFAULT_TIMEOUT)
            sock.settimeout(None)
        except OSError as exc:
            raise TransportError("connection to %s refused: %s" % (peer, exc))
        return TcpChannel(self.address, peer, sock)

    def stop_listening(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
