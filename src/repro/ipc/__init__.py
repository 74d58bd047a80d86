"""OS IPC substrate: local RPC between real processes (Table 2's
NT-RPC row) and the cross-process LRMI transport that deploys whole
J-Kernel domains out-of-process behind marshalling capability proxies.
Table 2's COM comparator lives in ``repro.bench.baselines.com``."""

from .lrmi import (
    DomainClient,
    DomainHostProcess,
    ExportTable,
    ProtocolError,
    RemoteCapability,
    connect,
    exported_methods,
)
from .ntrpc import (
    PING_METHOD,
    RpcClient,
    RpcDeadlineError,
    RpcError,
    RpcHandlerError,
    RpcMethodNotFound,
    RpcServer,
    RpcServerProcess,
    RpcTransportError,
    null_server,
)
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "DomainClient",
    "DomainHostProcess",
    "ExportTable",
    "PING_METHOD",
    "ProtocolError",
    "RemoteCapability",
    "RpcClient",
    "RpcDeadlineError",
    "RpcError",
    "RpcHandlerError",
    "RpcMethodNotFound",
    "RpcServer",
    "RpcServerProcess",
    "RpcTransportError",
    "WireError",
    "connect",
    "exported_methods",
    "null_server",
    "recv_frame",
    "send_frame",
]
