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

import itertools
import logging
import queue
import socket
import socketserver
import threading
from concurrent.futures import Future

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
             timeout: float | None = None) -> tuple[dict, bytes]:
        """Send a structured request; unpack the response, raising remote errors."""
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
    channels to peers."""

    def __init__(self, address: str):
        self.address = address
        self._channels: dict[str, Channel] = {}
        self._connecting: dict[str, Future] = {}  # peer -> its connect in flight
        self._channels_lock = threading.Lock()
        self._closed = False

    def listen(self, handler) -> None:
        raise NotImplementedError

    def _connect(self, peer: str) -> Channel:
        raise NotImplementedError

    def waits_on(self, peer: str) -> bool:
        """Whether a call to peer waits on a network, so that overlapping
        calls saves time."""
        return True

    def connect_ahead_pays(self, peer: str) -> bool:
        """Whether a client connects to peer before its first call to it.
        Only over an in-memory link that waits, where ingest was measured to
        gain; a TCP client connects to a member at its first call, so that a
        command opens no socket to a member it does not call."""
        return False

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
        with self._channels_lock:
            self._closed = True
            channels, self._channels = list(self._channels.values()), {}
            self._connecting = {}
        for channel in channels:
            channel.close()


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

    def listen(self, handler) -> None:
        self.network.listen(self.address, handler)

    def stop_listening(self) -> None:
        self.network.unlisten(self.address)

    def _connect(self, peer: str) -> Channel:
        self.network.connect(self.address, peer)
        return InMemoryChannel(self.network, self.address, peer)

    def waits_on(self, peer: str) -> bool:
        return self.network.profile.rtt(self.address, peer) > 0

    def connect_ahead_pays(self, peer: str) -> bool:
        return self.waits_on(peer)

    def close(self) -> None:
        self.stop_listening()
        super().close()


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
        self._receiver = threading.Thread(target=self._receive_loop, daemon=True)
        self._receiver.start()

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
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpTransport(Transport):
    """Real-socket backend. Addresses are 'host:port'; request origins are
    the peer's host, which is what address-based ACLs match against."""

    def __init__(self, address: str):
        super().__init__(address)
        self._server = None
        self._server_thread = None

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
                    try:
                        data = encode_message(response)
                        with write_lock:
                            sock.sendall(data)
                    except OSError:
                        pass

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
        self._server_thread = threading.Thread(target=self._server.serve_forever,
                                               kwargs={"poll_interval": 0.05}, daemon=True)
        self._server_thread.start()

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

    def close(self) -> None:
        self.stop_listening()
        super().close()
