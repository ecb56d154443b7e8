"""sectorsphere: a desk-scale distributed data cloud.

Storage layer: replicated, indexed record files located through a
consistent-hashing ring. Compute layer: user-defined operators applied
to every record of a stream, scheduled with locality preference. Plus
the sorting/split benchmarks and the emergent-cluster pipeline built on
top of both.
"""

from .angle import (
    ClusterModel,
    EmergenceSeries,
    EmergentCluster,
    FeatureVector,
    Window,
    cluster_drift,
    cluster_window,
    collect_emergent,
    detect_emergent,
    emergence_score,
    window_partition,
)
from .benchmarks import SplitResult, entropy, teragen, terasort, terasplit
from .client import ClientSession
from .cluster import ClusterConfig, LocalCluster, NodeSpec, parse_cluster_config, quick_cluster
from .errors import (
    AccessDeniedError,
    ConfigError,
    IntegrityError,
    JobError,
    NotFoundError,
    RangeError,
    RoutingError,
    RpcTimeoutError,
    SectorError,
    StaleError,
    TransportError,
)
from .node import NodeConfig, StorageNode
from .records import RecordIndex
from .routing import RingView, hash_name
from .sphere import (
    DataSegment,
    OutputMode,
    OutputSpec,
    SegmentLimits,
    Stream,
    StreamFile,
    register_bucket,
    register_operator,
    segment_stream,
)
from .transport import InMemoryNetwork, LinkProfile, TcpTransport
from .wire import Message, MessageKind, decode_message, encode_message

__version__ = "0.1.0"
