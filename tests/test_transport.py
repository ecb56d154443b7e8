import random
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from sectorsphere.clock import VirtualClock
from sectorsphere.errors import TransportError
from sectorsphere.transport import (
    InMemoryNetwork,
    LinkProfile,
    TcpTransport,
    reply,
)
from sectorsphere.wire import Message, MessageKind


def echo_handler(origin, msg):
    return reply(msg, MessageKind.OK, {"echo": True, "origin": origin})


def make_pair(profile=None, clock=None):
    network = InMemoryNetwork(profile=profile, clock=clock)
    server = network.endpoint("srv")
    server.listen(echo_handler)
    client = network.endpoint("cli")
    return network, server, client


def test_ping_pong_same_request_id():
    _, _, client = make_pair()
    channel = client.open_channel("srv")
    request = Message(kind=MessageKind.PING, request_id=77, payload=b"")
    response = channel.rpc(request)
    assert response.request_id == 77
    assert response.kind == MessageKind.OK


def test_interleaved_requests_matched_by_id():
    _, _, client = make_pair()
    channel = client.open_channel("srv")
    for rid in (7, 8):
        response = channel.rpc(Message(kind=MessageKind.PING, request_id=rid))
        assert response.request_id == rid


def test_request_to_closed_peer_is_transport_error():
    network, server, client = make_pair()
    channel = client.open_channel("srv")
    server.stop_listening()
    with pytest.raises(TransportError):
        channel.rpc(Message(kind=MessageKind.PING, request_id=1))


def test_open_channel_to_unknown_peer_refused():
    network = InMemoryNetwork()
    client = network.endpoint("cli")
    with pytest.raises(TransportError):
        client.open_channel("nobody")


def test_channel_cache_reuses_open_channel(monkeypatch):
    network, _, client = make_pair()
    connects = []
    connect = network.connect
    monkeypatch.setattr(network, "connect",
                        lambda local, peer: (connects.append((local, peer)), connect(local, peer)))
    first = client.open_channel("srv")
    assert client.open_channel("srv") is first
    for _ in range(10):
        first.rpc(Message(kind=MessageKind.PING, request_id=1))
    assert connects == [("cli", "srv")]


def open_at_once(transport, peer, callers=8) -> list:
    """open_channel(peer) from `callers` threads released together; each
    result is a channel or the exception raised."""
    barrier = threading.Barrier(callers, timeout=5)

    def open_one(_):
        barrier.wait()
        try:
            return transport.open_channel(peer)
        except TransportError as exc:
            return exc

    with ThreadPoolExecutor(callers) as pool:
        return list(pool.map(open_one, range(callers), timeout=30))


def test_threads_opening_one_new_peer_share_one_connect(monkeypatch):
    network, _, client = make_pair()
    connects = []
    connect = network.connect

    def slow(local, peer):
        connects.append(peer)
        time.sleep(0.2)  # the other callers ask for the peer meanwhile
        connect(local, peer)

    monkeypatch.setattr(network, "connect", slow)
    channels = open_at_once(client, "srv")
    assert connects == ["srv"]
    assert all(channel is channels[0] for channel in channels)
    assert client.open_channel("srv") is channels[0]


def test_racing_callers_make_one_connect_per_peer(monkeypatch):
    network = InMemoryNetwork()
    peers = ["p%d" % i for i in range(4)]
    for peer in peers:
        network.endpoint(peer).listen(echo_handler)
    client = network.endpoint("cli")
    connects = []
    connect = network.connect

    def counted(local, peer):
        connects.append(peer)
        time.sleep(0.001)
        connect(local, peer)

    monkeypatch.setattr(network, "connect", counted)

    def open_all(seed):
        order = random.Random(seed).sample(peers, len(peers))
        return {peer: client.open_channel(peer) for peer in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(16) as pool:
            opened = list(pool.map(open_all, range(64), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(connects) == peers
    for peer in peers:
        assert len({id(channels[peer]) for channels in opened}) == 1


def test_a_failed_connect_fails_its_waiters_and_is_not_remembered(monkeypatch):
    network = InMemoryNetwork()
    client = network.endpoint("cli")
    connects = []
    connect = network.connect

    def slow(local, peer):
        connects.append(peer)
        time.sleep(0.2)
        connect(local, peer)

    monkeypatch.setattr(network, "connect", slow)
    results = open_at_once(client, "late")
    assert connects == ["late"]
    assert all(isinstance(result, TransportError) for result in results)
    network.endpoint("late").listen(echo_handler)  # the next call tries again
    header, _ = client.open_channel("late").call(MessageKind.PING, {})
    assert header["echo"] and connects == ["late", "late"]


def hold_connects(monkeypatch, transport):
    """Make transport's connects wait, each after its channel is made, until
    the returned release event is set; returns (made channels, entered
    event, release event)."""
    made, entered, release = [], threading.Event(), threading.Event()
    connect = transport._connect

    def held(peer):
        channel = connect(peer)
        made.append(channel)
        entered.set()
        release.wait(5)
        return channel

    monkeypatch.setattr(transport, "_connect", held)
    return made, entered, release


def close_during_connect(transport, peer, entered, release):
    with ThreadPoolExecutor(1) as pool:
        opening = pool.submit(transport.open_channel, peer)
        assert entered.wait(5)
        transport.close()
        release.set()
        with pytest.raises(TransportError):
            opening.result(5)


def test_a_connect_that_finishes_after_close_is_closed_and_not_cached(monkeypatch):
    _, _, client = make_pair()
    made, entered, release = hold_connects(monkeypatch, client)
    close_during_connect(client, "srv", entered, release)
    assert not made[0].is_open and not client.has_channel("srv")
    with pytest.raises(TransportError):  # a closed transport stays closed
        client.open_channel("srv")
    assert len(made) == 1


def test_loopback_channel_has_zero_rtt():
    profile = LinkProfile({("a", "b"): 25.0})
    assert profile.rtt("a", "a") == 0.0
    clock = VirtualClock()
    network = InMemoryNetwork(profile=profile, clock=clock)
    endpoint = network.endpoint("a")
    endpoint.listen(echo_handler)
    channel = endpoint.open_channel("a")
    before = clock.now()
    channel.rpc(Message(kind=MessageKind.PING, request_id=1))
    assert clock.now() == before


def test_injected_rtt_delays_round_trip():
    profile = LinkProfile({("cli", "srv"): 16.0})
    clock = VirtualClock()
    _, _, client = make_pair(profile=profile, clock=clock)
    channel = client.open_channel("srv")  # establishment costs one rtt
    assert clock.now() >= 0.016
    before = clock.now()
    channel.rpc(Message(kind=MessageKind.PING, request_id=1))
    assert clock.now() - before >= 0.016


def test_profile_is_symmetric_and_validates():
    profile = LinkProfile({("a", "b"): 16.0})
    assert profile.rtt("a", "b") == profile.rtt("b", "a") == 16.0
    with pytest.raises(ValueError):
        profile.set_rtt("a", "c", -1.0)


def test_error_reply_raises_mapped_exception():
    network = InMemoryNetwork()
    server = network.endpoint("srv")

    def handler(origin, msg):
        from sectorsphere.transport import error_reply
        return error_reply(msg, "not-found", "nope")

    server.listen(handler)
    client = network.endpoint("cli")
    from sectorsphere.errors import NotFoundError
    with pytest.raises(NotFoundError):
        client.open_channel("srv").call(MessageKind.LOOKUP, {"name": "x"})


# ------------------------------------------------------------- tcp backend

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def tcp_server():
    address = "127.0.0.1:%d" % free_port()
    server = TcpTransport(address)
    server.listen(echo_handler)
    yield address, server
    server.close()


def test_tcp_rpc_and_cache(tcp_server):
    address, _ = tcp_server
    client = TcpTransport("127.0.0.1:0")
    try:
        channel = client.open_channel(address)
        response = channel.rpc(Message(kind=MessageKind.PING, request_id=5))
        assert response.request_id == 5
        assert client.open_channel(address) is channel
    finally:
        client.close()


def test_tcp_concurrent_correlation(tcp_server):
    address, _ = tcp_server
    client = TcpTransport("127.0.0.1:0")
    results = {}

    def call(rid):
        header, _ = client.open_channel(address).call(MessageKind.PING, {"rid": rid})
        results[rid] = header["echo"]

    try:
        threads = [threading.Thread(target=call, args=(rid,)) for rid in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 24 and all(results.values())
    finally:
        client.close()


def test_tcp_connection_refused():
    client = TcpTransport("127.0.0.1:0")
    try:
        with pytest.raises(TransportError):
            client.open_channel("127.0.0.1:%d" % free_port())
    finally:
        client.close()


def test_tcp_rpc_timeout_when_server_never_replies():
    import socket as socket_mod
    import threading

    listener = socket_mod.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    accepted = []

    def accept_and_hold():
        conn, _ = listener.accept()
        accepted.append(conn)  # read nothing, reply nothing

    holder = threading.Thread(target=accept_and_hold, daemon=True)
    holder.start()
    client = TcpTransport("127.0.0.1:0")
    try:
        channel = client.open_channel("127.0.0.1:%d" % port)
        from sectorsphere.errors import RpcTimeoutError
        with pytest.raises(RpcTimeoutError):
            channel.rpc(Message(kind=MessageKind.PING, request_id=1), timeout=0.3)
    finally:
        client.close()
        for conn in accepted:
            conn.close()
        listener.close()


def test_tcp_threads_opening_one_new_peer_share_one_connect(tcp_server, monkeypatch):
    address, _ = tcp_server
    client = TcpTransport("127.0.0.1:0")
    connects = []
    connect = client._connect

    def slow(peer):
        connects.append(peer)
        time.sleep(0.2)
        return connect(peer)

    monkeypatch.setattr(client, "_connect", slow)
    try:
        channels = open_at_once(client, address)
        assert connects == [address]
        assert all(channel is channels[0] for channel in channels)
        header, _ = channels[0].call(MessageKind.PING, {})
        assert header["echo"]
    finally:
        client.close()


def test_tcp_connect_that_finishes_after_close_leaves_no_open_socket(tcp_server, monkeypatch):
    address, _ = tcp_server
    client = TcpTransport("127.0.0.1:0")
    made, entered, release = hold_connects(monkeypatch, client)
    try:
        close_during_connect(client, address, entered, release)
        assert not made[0].is_open and made[0]._sock.fileno() == -1
        assert not client.has_channel(address)
    finally:
        client.close()


def test_a_closed_tcp_server_stops_answering_the_connections_it_accepted(tcp_server,
                                                                         started_threads):
    address, server = tcp_server
    client = TcpTransport("127.0.0.1:0")
    try:
        channel = client.open_channel(address)
        header, _ = channel.call(MessageKind.PING, {})
        assert header["echo"]
        server.close()
        with pytest.raises(TransportError):
            channel.call(MessageKind.PING, {}, timeout=5)
        # the server's connection thread ends, and so does the client's
        # receiver, which reads the end of the stream
        for thread in started_threads:
            thread.join(5)
        assert not any(thread.is_alive() for thread in started_threads)
    finally:
        client.close()


def test_a_closed_tcp_transport_opens_no_channel(tcp_server):
    address, _ = tcp_server
    client = TcpTransport("127.0.0.1:0")
    channel = client.open_channel(address)
    client.close()
    assert not channel.is_open and channel._sock.fileno() == -1
    with pytest.raises(TransportError):
        client.open_channel(address)
    assert not client.has_channel(address)
