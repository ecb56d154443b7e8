"""Cluster configuration and the in-process multi-node harness.

Scenario and test clusters run every node in one process over the
in-memory transport, optionally with a link profile injecting wide-area
round-trip times. The socket daemon reads its cluster from plain INI
text with one section per node.
"""

from __future__ import annotations

import configparser
import zlib
from dataclasses import dataclass
from pathlib import Path

from .client import ClientSession
from .errors import ConfigError, TransportError
from .node import NodeConfig, StorageNode
from .routing import RingView
from .transport import InMemoryNetwork, LinkProfile, TcpTransport

DEFAULT_CLIENT_ADDRESS = "client-0"


def node_seed(cluster_seed: int, address: str) -> int:
    """Stable per-node RNG seed (process-independent, unlike hash())."""
    return zlib.crc32(("%d:%s" % (cluster_seed, address)).encode())


@dataclass
class NodeSpec:
    name: str
    address: str
    data_dir: str
    acl: frozenset = frozenset()


@dataclass
class ClusterConfig:
    nodes: list[NodeSpec]
    replica_target: int = 3
    seed: int = 0
    check_interval: float = 86400.0

    def __post_init__(self):
        if not self.nodes:
            raise ConfigError("cluster has no nodes")
        addresses = [n.address for n in self.nodes]
        if len(set(addresses)) != len(addresses):
            raise ConfigError("duplicate node addresses in cluster config")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate node names in cluster config")
        if not (1 <= self.replica_target <= len(self.nodes)):
            raise ConfigError("replica target %d not in 1..%d"
                              % (self.replica_target, len(self.nodes)))

    def spec(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigError("no node named %r in cluster config" % name)

    def node_config(self, spec: NodeSpec) -> NodeConfig:
        """The settings of one node: its own spec plus the cluster-wide ones."""
        return NodeConfig(
            address=spec.address,
            data_dir=spec.data_dir,
            acl_writers=frozenset(spec.acl),
            replica_target=self.replica_target,
            check_interval=self.check_interval,
            seed=node_seed(self.seed, spec.address),
        )


def parse_cluster_config(path) -> ClusterConfig:
    """The cluster of the socket daemons, whose node addresses are host:port."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("cannot read cluster config %s" % path)
    nodes = []
    for section in parser.sections():
        if not section.startswith("node:"):
            continue
        name = section.split(":", 1)[1]
        try:
            address = parser.get(section, "address")
            data_dir = parser.get(section, "data_dir")
            TcpTransport.split(address)
        except (configparser.NoOptionError, TransportError) as exc:
            raise ConfigError("section [%s]: %s" % (section, exc))
        acl = frozenset(a.strip() for a in
                        parser.get(section, "acl", fallback="").split(",") if a.strip())
        nodes.append(NodeSpec(name=name, address=address, data_dir=data_dir, acl=acl))
    cluster = parser["cluster"] if parser.has_section("cluster") else {}
    return ClusterConfig(
        nodes=nodes,
        replica_target=int(cluster.get("replica_target", 3)),
        seed=int(cluster.get("seed", 0)),
        check_interval=float(cluster.get("check_interval", 86400.0)),
    )


class LocalCluster:
    """All configured nodes in one process over the in-memory transport."""

    def __init__(self, config: ClusterConfig, profile: LinkProfile | None = None,
                 clock=None):
        self.config = config
        self.network = InMemoryNetwork(profile=profile, clock=clock)
        self.ring = RingView.from_addresses(n.address for n in config.nodes)
        self.nodes: dict[str, StorageNode] = {}
        self._clients: list[ClientSession] = []
        for spec in config.nodes:
            self._build_node(spec)

    def _build_node(self, spec: NodeSpec) -> StorageNode:
        node = StorageNode(self.config.node_config(spec),
                           self.network.endpoint(spec.address), self.ring)
        node.start()
        self.nodes[spec.address] = node
        return node

    # ------------------------------------------------------------ membership

    def _install_ring(self, ring: RingView) -> None:
        self.ring = ring
        for node in self.nodes.values():
            node.prepare_ring(ring)
        for node in self.nodes.values():
            node.reannounce()

    def kill(self, address: str) -> None:
        """Hard-stop a node and remove it from the ring."""
        node = self.nodes.pop(address, None)
        if node is None:
            raise ConfigError("no running node at %s" % address)
        node.stop()
        self._install_ring(self.ring.leave(address))

    def add_node(self, spec: NodeSpec) -> StorageNode:
        ring = self.ring.join(spec.address)
        self.ring = ring
        node = self._build_node(spec)
        self._install_ring(ring)
        return node

    # ---------------------------------------------------------------- client

    def client(self, address: str = DEFAULT_CLIENT_ADDRESS,
               entry: str | None = None) -> ClientSession:
        session = ClientSession(
            transport=self.network.endpoint(address),
            entry_server=entry or self.config.nodes[0].address,
            profile=self.network.profile)
        self._clients.append(session)
        return session

    # ------------------------------------------------------------ operations

    def replication_cycle(self) -> list[dict]:
        """One accelerated 'daily' maintenance pass across all live nodes."""
        actions = []
        for node in list(self.nodes.values()):
            actions.extend(node.replicate_check())
        return actions

    def location_counts(self, names) -> dict[str, int]:
        counts = {}
        for name in names:
            owner = self.ring.owner(name).address
            node = self.nodes[owner]
            counts[name] = len(node.registry.get(name, ()))
        return counts

    def stop(self) -> None:
        for session in self._clients:
            session.close()
        for node in self.nodes.values():
            node.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


def quick_cluster(base_dir, n_nodes: int, replica_target: int = 1,
                  acl=("client-0",), profile: LinkProfile | None = None,
                  seed: int = 0, addresses=None, clock=None) -> LocalCluster:
    """Build a LocalCluster with data dirs under base_dir; for tests and
    scenarios."""
    base = Path(base_dir)
    addresses = list(addresses or ("node-%d" % i for i in range(n_nodes)))
    specs = [NodeSpec(name=a, address=a, data_dir=str(base / a), acl=frozenset(acl))
             for a in addresses]
    config = ClusterConfig(nodes=specs, replica_target=replica_target, seed=seed)
    return LocalCluster(config, profile=profile, clock=clock)


def tcp_node(config: ClusterConfig, name: str) -> StorageNode:
    """Build and start one real-socket node from a cluster config."""
    spec = config.spec(name)
    ring = RingView.from_addresses(n.address for n in config.nodes)
    node = StorageNode(config.node_config(spec), TcpTransport(spec.address), ring)
    node.start(replicate_in_background=True)
    return node
